"""Mutation operators: closure, determinism, weighting, site selection."""

import inspect
import json
import pickle
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conffuzz.configfmt import parse_config
from conffuzz.grammar import (
    DEFAULT_START,
    DerivationTree,
    generate_tree,
    minimal_tree,
    parse_grammar,
    unparse,
)
from conffuzz.mutate import DEFAULT_WEIGHTS, MutationKind, random_mutation

from conftest import mutation

REGENERATE = MutationKind.REGENERATE
RULE_SWAP = MutationKind.RULE_SWAP
SPLICE = MutationKind.SPLICE
SCALAR_TWEAK = MutationKind.SCALAR_TWEAK

BIT = parse_grammar(
    json.dumps({"<START>": [["v = ", "<BIT>", ";"]], "<BIT>": [["0"], ["1"]]})
)
NUM = parse_grammar(
    json.dumps({"<START>": [["<N>"]], "<N>": [["5"], ["1"], ["9"], ["0"], ["7"]]})
)
DIGITS = parse_grammar(
    json.dumps(
        {
            "<START>": [["<DIGITS>"]],
            "<DIGITS>": [["<DIGIT>"], ["<DIGIT>", "<DIGITS>"]],
            "<DIGIT>": [[str(d)] for d in range(10)],
        }
    )
)
FIXED = parse_grammar(json.dumps({"<START>": [["only"]]}))


def depth(t: DerivationTree) -> int:
    return 1 + max((depth(c) for c in t.children), default=0)


class TestClosure:
    def test_random_mutation_stays_in_language(self, gnb_grammar):
        tree = minimal_tree(gnb_grammar, DEFAULT_START)
        for seed in range(300):
            tree, _ = mutation(tree, gnb_grammar, Random(seed))
            unparse(tree, gnb_grammar)
            parse_config(unparse(tree, gnb_grammar))  # must stay well-formed

    def test_each_operator_preserves_validity(self, gnb_grammar):
        base = generate_tree(gnb_grammar, seed=7)
        donor = generate_tree(gnb_grammar, seed=8)
        for seed in range(50):
            for out in (
                mutation(base, gnb_grammar, Random(seed), REGENERATE)[0],
                mutation(base, gnb_grammar, Random(seed), RULE_SWAP)[0],
                mutation(
                    base, gnb_grammar, Random(seed), SPLICE, donor=donor
                )[0],
                mutation(base, gnb_grammar, Random(seed), SCALAR_TWEAK)[0],
            ):
                unparse(out, gnb_grammar)


def preorder(t: DerivationTree, path: tuple[int, ...] = ()):
    """The (path, node) walk the operators drew their sites from before
    trees cached it."""
    yield path, t
    for i, child in enumerate(t.children):
        yield from preorder(child, path + (i,))


class TestWalkCache:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    def test_paths_is_the_preorder_walk(self, seed, max_depth):
        t = generate_tree(DIGITS, seed, max_depth)
        assert list(t.paths) == list(preorder(t))
        assert t.paths is t.paths

    def test_gnb_paths_is_the_preorder_walk(self, gnb_grammar):
        t = generate_tree(gnb_grammar, seed=11)
        assert list(t.paths) == list(preorder(t))

    def test_cache_is_not_part_of_equality(self):
        t = generate_tree(DIGITS, seed=4, max_depth=8)
        fresh = DerivationTree(t.token, t.rule_index, t.children)
        t.paths
        text = unparse(t, DIGITS)
        mutation(t, DIGITS, Random(1), RULE_SWAP)
        mutation(t, DIGITS, Random(1), SCALAR_TWEAK)
        assert {"paths", "_text", "_swap_sites", "_tweak_sites"} <= set(vars(t))
        assert fresh == t and hash(fresh) == hash(t)
        shown = repr(t)
        assert shown == repr(fresh)
        assert "paths" not in shown and "sites" not in shown
        back = pickle.loads(pickle.dumps(t))
        assert back == t and vars(back) == {}
        assert unparse(back, DIGITS) == text

    def test_kept_sites_are_per_grammar(self):
        # two grammars over the same tokens: <X> has two numeric rules in
        # one and <Y> in the other, so each swaps and tweaks another node
        one = parse_grammar(
            json.dumps(
                {"<START>": [["<X>", "<Y>"]], "<X>": [["0"], ["1"]], "<Y>": [["5"]]}
            )
        )
        other = parse_grammar(
            json.dumps(
                {"<START>": [["<X>", "<Y>"]], "<X>": [["0"]], "<Y>": [["5"], ["6"]]}
            )
        )
        t = generate_tree(one, seed=1)
        for kind in (RULE_SWAP, SCALAR_TWEAK):
            for g, text in ((one, "15"), (other, "06"), (one, "15")):
                mutant, _ = mutation(t, g, Random(3), kind)
                fresh = DerivationTree(t.token, t.rule_index, t.children)
                assert mutant == mutation(fresh, g, Random(3), kind)[0]
                assert unparse(mutant, g) == text

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    def test_nested_operators_stay_valid(self, seed, max_depth):
        # TestClosure covers the flat gnb grammar; here paths are deep, and
        # one tree with its walk cached is mutated many times
        base = generate_tree(DIGITS, seed, max_depth)
        for s in range(8):
            for out in (
                mutation(
                    base, DIGITS, Random(s), REGENERATE, max_depth=max_depth
                )[0],
                mutation(base, DIGITS, Random(s), RULE_SWAP)[0],
                mutation(base, DIGITS, Random(s), SPLICE, donor=base)[0],
                mutation(base, DIGITS, Random(s), SCALAR_TWEAK)[0],
            ):
                unparse(out, DIGITS)


class TestDeterminism:
    def test_same_seed_same_result(self, gnb_grammar):
        base = generate_tree(gnb_grammar, seed=3)
        donor = generate_tree(gnb_grammar, seed=4)
        for seed in (0, 1, 99):
            assert mutation(
                base, gnb_grammar, Random(seed), REGENERATE
            ) == mutation(base, gnb_grammar, Random(seed), REGENERATE)
            assert mutation(
                base, gnb_grammar, Random(seed), SPLICE, donor=donor
            ) == mutation(base, gnb_grammar, Random(seed), SPLICE, donor=donor)
            assert mutation(base, gnb_grammar, Random(seed)) == mutation(
                base, gnb_grammar, Random(seed)
            )


class TestRegenerate:
    def test_respects_depth_budget(self):
        t = minimal_tree(DIGITS, "<START>")
        for seed in range(100):
            out = mutation(t, DIGITS, Random(seed), REGENERATE, max_depth=3)[0]
            assert depth(out) <= 3
            assert len(unparse(out, DIGITS)) == 1

    def test_can_grow_within_budget(self):
        t = minimal_tree(DIGITS, "<START>")
        outs = [
            mutation(t, DIGITS, Random(seed), REGENERATE, max_depth=16)[0]
            for seed in range(50)
        ]
        assert any(len(unparse(out, DIGITS)) > 1 for out in outs)

    def test_deep_node_keeps_minimal_escape(self):
        # budget never starves a node below its own minimal depth
        t = generate_tree(DIGITS, seed=5, max_depth=30)
        for seed in range(50):
            out = mutation(t, DIGITS, Random(seed), REGENERATE, max_depth=2)[0]
            unparse(out, DIGITS)


class TestRuleSwap:
    def test_flips_the_only_binary_token(self):
        t = minimal_tree(BIT, "<START>")
        assert unparse(t, BIT) == "v = 0;"
        for seed in range(20):
            out = mutation(t, BIT, Random(seed), RULE_SWAP)[0]
            assert unparse(out, BIT) == "v = 1;"

    def test_identity_when_no_alternatives(self):
        t = minimal_tree(FIXED, "<START>")
        assert mutation(t, FIXED, Random(0), RULE_SWAP)[0] is t

    def test_new_children_are_minimal(self):
        t = minimal_tree(DIGITS, "<DIGITS>")
        swapped = False
        for seed in range(50):
            out = mutation(t, DIGITS, Random(seed), RULE_SWAP)[0]
            unparse(out, DIGITS)
            # the two-child rule fills the recursive slot minimally
            if out.token == "<DIGITS>" and out.rule_index == 1:
                swapped = True
                assert len(unparse(out, DIGITS)) == 2
        assert swapped


class TestSplice:
    def test_moves_donor_material(self):
        t = minimal_tree(BIT, "<START>")  # v = 0;
        donor = mutation(t, BIT, Random(0), RULE_SWAP)[0]  # v = 1;
        # every donor subtree carries the 1, so any graft site flips it
        seen = {
            unparse(mutation(t, BIT, Random(s), SPLICE, donor=donor)[0], BIT)
            for s in range(40)
        }
        assert seen == {"v = 1;"}

    def test_mixes_values_across_slots(self, gnb_grammar):
        from conffuzz.grammar import derive_tree

        base = minimal_tree(gnb_grammar, DEFAULT_START)
        donor = generate_tree(gnb_grammar, seed=10)
        assert unparse(donor, gnb_grammar) != unparse(base, gnb_grammar)
        # the root's children are the value slots; a single-slot graft can
        # only differ from both trees when they differ in two slots or more
        assert sum(a != b for a, b in zip(base.children, donor.children)) >= 2
        outputs = {
            unparse(
                mutation(base, gnb_grammar, Random(s), SPLICE, donor=donor)[0],
                gnb_grammar,
            )
            for s in range(60)
        }
        # grafting hits single slots as well as whole-tree replacement
        assert unparse(base, gnb_grammar) in outputs
        assert unparse(donor, gnb_grammar) in outputs
        assert len(outputs) > 2
        for text in outputs:
            assert derive_tree(gnb_grammar, text) is not None

    def test_self_splice_is_identity_on_unique_slots(self, gnb_grammar):
        t = minimal_tree(gnb_grammar, DEFAULT_START)
        for seed in range(20):
            out = mutation(t, gnb_grammar, Random(seed), SPLICE, donor=t)[0]
            assert unparse(out, gnb_grammar) == unparse(t, gnb_grammar)

    def test_identity_when_tokens_disjoint(self):
        t = minimal_tree(FIXED, "<START>")
        donor_grammar = parse_grammar(json.dumps({"<START>": [["other"]]}))
        donor = minimal_tree(donor_grammar, "<START>")
        # same token name, so the root is swappable; different name is not
        out = mutation(t, FIXED, Random(0), SPLICE, donor=donor)[0]
        assert out.token == "<START>"


class TestScalarTweak:
    def leaf_value(self, t):
        return unparse(t, NUM)

    def test_steps_from_five(self):
        t = minimal_tree(NUM, "<START>")
        assert self.leaf_value(t) == "5"
        seen = {
            self.leaf_value(mutation(t, NUM, Random(s), SCALAR_TWEAK)[0])
            for s in range(200)
        }
        # nearest above, nearest below, zero, min, max
        assert seen == {"7", "1", "0", "9"}

    def test_steps_from_zero(self):
        zero = DerivationTree("<START>", 0, (DerivationTree("<N>", 3),))
        assert self.leaf_value(zero) == "0"
        seen = {
            self.leaf_value(mutation(zero, NUM, Random(s), SCALAR_TWEAK)[0])
            for s in range(200)
        }
        assert seen == {"1", "9"}

    def test_identity_without_numeric_leaves(self):
        t = minimal_tree(FIXED, "<START>")
        assert mutation(t, FIXED, Random(0), SCALAR_TWEAK)[0] is t

    def test_gnb_bandwidth_steps(self, gnb_grammar):
        # <BW_RB> alternatives are 106, 25, 24, 273, 5; from 106 a tweak
        # may reach 273 (above), 25 (below), 5 (min), or 273 (max)
        t = minimal_tree(gnb_grammar, DEFAULT_START)
        values = set()
        for seed in range(500):
            out = mutation(t, gnb_grammar, Random(seed), SCALAR_TWEAK)[0]
            text = unparse(out, gnb_grammar)
            for line in text.splitlines():
                if "dl_carrierBandwidth" in line:
                    values.add(int(line.split("=")[1].strip(" ;")))
        assert values == {106, 273, 25, 5}


class TestRandomMutation:
    def test_takes_only_what_the_campaign_passes(self):
        params = inspect.signature(random_mutation).parameters.values()
        names = ["t", "g", "rng", "donor", "max_depth", "memo"]
        assert [p.name for p in params] == names
        assert all(p.default is inspect.Parameter.empty for p in params)

    def test_default_weight_frequencies(self, gnb_grammar):
        t = minimal_tree(gnb_grammar, DEFAULT_START)
        n = 100_000
        counts = Counter(
            mutation(t, gnb_grammar, Random(seed))[1] for seed in range(n)
        )
        total_weight = sum(DEFAULT_WEIGHTS.values())
        for kind, w in DEFAULT_WEIGHTS.items():
            assert abs(counts[kind] / n - w / total_weight) < 0.02, kind

    def test_single_entry_weights_force_kind(self, gnb_grammar):
        t = minimal_tree(gnb_grammar, DEFAULT_START)
        for kind in MutationKind:
            for seed in range(10):
                _, chosen = mutation(t, gnb_grammar, Random(seed), kind)
                assert chosen is kind

    def test_explicit_donor_used_for_splice(self):
        t = minimal_tree(BIT, "<START>")
        donor = mutation(t, BIT, Random(0), RULE_SWAP)[0]
        seen = set()
        for seed in range(40):
            out, kind = mutation(
                t, BIT, Random(seed), MutationKind.SPLICE, donor=donor
            )
            assert kind is MutationKind.SPLICE
            seen.add(unparse(out, BIT))
        assert "v = 1;" in seen

    def test_identity_fallback_still_reports_kind(self):
        t = minimal_tree(FIXED, "<START>")
        out, kind = mutation(t, FIXED, Random(0), MutationKind.RULE_SWAP)
        assert out is t
        assert kind is MutationKind.RULE_SWAP

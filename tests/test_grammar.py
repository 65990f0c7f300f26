import json
from random import Random

import pytest

from conffuzz.grammar import (
    BadTokenNameError,
    DepthInfeasibleError,
    DerivationTree,
    Grammar,
    InvalidTreeError,
    MalformedJsonError,
    MissingStartError,
    NoFiniteDerivationError,
    Rule,
    RuleItem,
    UndefinedTokenRefError,
    check_max_depth,
    derive_tree,
    generate_tree,
    minimal_tree,
    parse_grammar,
    sample_tree,
    tree_size,
    unparse,
)

BIT_GRAMMAR = '{"<START>": [["do_CSIRS = ", "<BIT>", ";"]], "<BIT>": [["0"], ["1"]]}'

# <DIGIT> depth 1, <DIGITS> depth 2, <START> depth 3 (hand-computed minimal
# finite derivations: a lone leaf counts 1, each expansion adds a level).
DIGITS_GRAMMAR = json.dumps(
    {
        "<START>": [["<DIGITS>"]],
        "<DIGITS>": [["<DIGIT>"], ["<DIGIT>", "<DIGITS>"]],
        "<DIGIT>": [["0"], ["1"], ["2"], ["3"], ["4"], ["5"], ["6"], ["7"], ["8"], ["9"]],
    }
)

# one derivation level per "1": a run of n ones nests n <D> expansions
RIGHT_RECURSIVE_GRAMMAR = json.dumps(
    {"<START>": [["<D>"]], "<D>": [["1"], ["1", "<D>"]]}
)


class TestParseGrammar:
    def test_two_token_grammar(self):
        g = parse_grammar(BIT_GRAMMAR)
        assert list(g.productions) == ["<START>", "<BIT>"]
        assert len(g.productions["<BIT>"]) == 2

    def test_rule_items_classified(self):
        g = parse_grammar(BIT_GRAMMAR)
        items = g.productions["<START>"][0].items
        assert [i.is_ref for i in items] == [False, True, False]
        assert g.productions["<START>"][0].refs == ("<BIT>",)
        # only a whole token-shaped string is a reference
        g = parse_grammar('{"<START>": [["a<B>", "<B", "<B>"]], "<B>": [["b"]]}')
        items = g.productions["<START>"][0].items
        assert [i.is_ref for i in items] == [False, False, True]
        assert unparse(generate_tree(g, 0), g) == "a<B><Bb"

    def test_self_recursive_token_rejected(self):
        with pytest.raises(NoFiniteDerivationError):
            parse_grammar('{"<START>": [["<A>"]], "<A>": [["<A>"]]}')

    def test_mutually_recursive_tokens_rejected(self):
        with pytest.raises(NoFiniteDerivationError):
            parse_grammar(
                '{"<START>": [["<A>"]], "<A>": [["<B>"]], "<B>": [["<A>"]]}'
            )

    def test_recursion_with_terminating_alternative_ok(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        assert g.min_depth("<DIGIT>") == 1
        assert g.min_depth("<DIGITS>") == 2
        assert g.min_depth("<START>") == 3

    def test_min_depth_is_an_int(self, gnb_grammar):
        # the cost tables hold floats; a depth is a whole number of levels
        assert type(gnb_grammar.min_depth("<START>")) is int
        with pytest.raises(DepthInfeasibleError) as info:
            check_max_depth(gnb_grammar, 0)
        assert str(info.value).endswith("below minimal derivation depth 2")

    def test_undefined_ref_strict(self):
        with pytest.raises(UndefinedTokenRefError):
            parse_grammar('{"<START>": [["x", "<GONE>"]]}')

    def test_repeated_token_rejected(self):
        # json.loads alone keeps the last <START>, and drops the first
        # one's two rules without a word
        text = '{"<START>": [["a"], ["<N>"]], "<N>": [["1"]], "<START>": [["b"]]}'
        with pytest.raises(MalformedJsonError) as err:
            parse_grammar(text)
        assert str(err.value) == "'<START>' is defined more than once"

    def test_direct_construction_rejects_undefined_ref(self):
        # <START> has another, finite rule, so only the reference check
        # stops this grammar; it used to load, and rule-swap then raised
        # KeyError: '<GHOST>' in minimal_tree
        prods = {
            "<START>": (
                Rule((RuleItem("a", False),)),
                Rule((RuleItem("<GHOST>", True),)),
            )
        }
        with pytest.raises(UndefinedTokenRefError) as err:
            Grammar(prods)
        assert str(err.value) == (
            "rule for '<START>' references undefined token '<GHOST>'"
        )

    def test_missing_start(self):
        with pytest.raises(MissingStartError):
            parse_grammar("{}")
        with pytest.raises(MissingStartError):
            parse_grammar('{"<A>": [["a"]]}')

    def test_direct_construction_requires_start(self):
        # every Grammar has a start token, so nothing that samples or
        # derives from one checks for it again; an undefined reference is
        # reported first, and a dead token only after the start
        a = (Rule((RuleItem("a", False),)),)
        with pytest.raises(MissingStartError) as err:
            Grammar({"<A>": a})
        assert str(err.value) == "grammar does not define '<START>'"
        with pytest.raises(MissingStartError):
            Grammar({"<A>": (Rule((RuleItem("<A>", True),)),)})
        with pytest.raises(UndefinedTokenRefError):
            Grammar({"<A>": (Rule((RuleItem("<GHOST>", True),)),)})

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"<A>": ["x"]}',
            '{"<A>": [[1]]}',
            '{"<A>": {"x": 1}}',
        ],
    )
    def test_malformed_json(self, text):
        with pytest.raises(MalformedJsonError):
            parse_grammar(text)

    @pytest.mark.parametrize("name", ["foo", "<bad name>", "<>", "<a.b>", "START"])
    def test_bad_token_name(self, name):
        with pytest.raises(BadTokenNameError):
            parse_grammar(json.dumps({name: [["x"]], "<START>": [["y"]]}))

    def test_token_with_no_rules_rejected(self):
        with pytest.raises(NoFiniteDerivationError):
            parse_grammar('{"<START>": [["<A>"]], "<A>": []}')

    def test_start_with_no_rules_rejected(self):
        with pytest.raises(NoFiniteDerivationError) as err:
            parse_grammar('{"<START>": []}')
        assert str(err.value) == "token(s) with no finite derivation: <START>"

    def test_epsilon_rule_allowed(self):
        g = parse_grammar('{"<START>": [[]]}')
        assert unparse(generate_tree(g, 3), g) == ""


class TestTables:
    def test_swappable_tokens_have_two_rules_or_more(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        assert g.swappable == {"<DIGITS>", "<DIGIT>"}

    def test_productions_are_a_read_only_copy(self):
        # the tables are built from the productions once, so neither the
        # grammar nor the caller's dict may change them afterwards
        bit = (Rule((RuleItem("0", False),)), Rule((RuleItem("1", False),)))
        prods = {"<START>": bit}
        g = Grammar(prods)
        with pytest.raises(TypeError):
            g.productions["<START>"] = bit[:1]
        prods["<START>"] = bit[:1]
        prods["<NEW>"] = bit
        assert dict(g.productions) == {"<START>": bit}
        assert g.swappable == {"<START>"}

    def test_productions_and_tables_cannot_be_rebound(self):
        # rebinding the productions would leave every table stale: a token
        # cut to one rule would stay swappable, and rule-swap would draw
        # from an empty range
        g = parse_grammar(DIGITS_GRAMMAR)
        one_rule = {**g.productions, "<DIGIT>": g.productions["<DIGIT>"][:1]}
        with pytest.raises(AttributeError):
            g.productions = one_rule
        with pytest.raises(AttributeError):
            g.swappable = frozenset()
        assert len(g.productions["<DIGIT>"]) == 10

    def test_smallest_is_one_shared_minimal_instance_per_rule(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        two = g.smallest("<DIGITS>", 1)
        assert two == DerivationTree(
            "<DIGITS>", 1, (minimal_tree(g, "<DIGIT>"), minimal_tree(g, "<DIGITS>"))
        )
        assert g.smallest("<DIGITS>", 1) is two
        assert g.smallest("<DIGIT>", 7) == DerivationTree("<DIGIT>", 7)

    def test_sampled_leaves_are_the_shared_instances(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        t = generate_tree(g, seed=5, max_depth=12)
        for _, node in t.paths:
            if not node.children:
                assert node is g.smallest(node.token, node.rule_index)

    def test_tight_budget_still_filters_rules(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        # only the one-digit rule fits two levels
        for seed in range(20):
            assert sample_tree(g, "<DIGITS>", 2, Random(seed)).rule_index == 0
        with pytest.raises(DepthInfeasibleError):
            sample_tree(g, "<DIGITS>", 1, Random(0))

    def test_grafts_group_paths_by_token_in_preorder(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        t = generate_tree(g, seed=9, max_depth=12)
        grouped = {}
        for _, node in t.paths:
            grouped.setdefault(node.token, []).append(node)
        assert t.grafts == {k: tuple(v) for k, v in grouped.items()}
        assert t.grafts is t.grafts
        fresh = DerivationTree(t.token, t.rule_index, t.children)
        assert fresh == t and hash(fresh) == hash(t)
        assert "grafts" not in repr(t)


class TestGenerateTree:
    def test_single_derivation_any_seed(self):
        g = parse_grammar('{"<START>": [["a"]]}')
        for seed in range(20):
            assert unparse(generate_tree(g, seed), g) == "a"

    def test_determinism(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        assert generate_tree(g, 7, 32) == generate_tree(g, 7, 32)

    def test_seeds_reach_both_bit_alternatives(self):
        g = parse_grammar(BIT_GRAMMAR)
        seen = {unparse(generate_tree(g, s), g) for s in range(32)}
        assert seen == {"do_CSIRS = 0;", "do_CSIRS = 1;"}

    def test_depth_budget_forces_minimal_rules(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        # Budget equal to the minimal depth leaves room for exactly one digit.
        for seed in range(50):
            t = generate_tree(g, seed, max_depth=3)
            assert len(unparse(t, g)) == 1

    def test_depth_infeasible(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        with pytest.raises(DepthInfeasibleError):
            generate_tree(g, 1, max_depth=2)

    def test_generated_trees_validate(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        for seed in range(200):
            unparse(generate_tree(g, seed, 16), g)


class TestUnparse:
    def test_bit_rule_choice(self):
        g = parse_grammar(BIT_GRAMMAR)
        t = DerivationTree("<START>", 0, (DerivationTree("<BIT>", 1),))
        assert unparse(t, g) == "do_CSIRS = 1;"

    def test_rule_index_out_of_range(self):
        g = parse_grammar(BIT_GRAMMAR)
        bad = DerivationTree("<START>", 0, (DerivationTree("<BIT>", 2),))
        with pytest.raises(InvalidTreeError):
            unparse(bad, g)

    def test_missing_child(self):
        g = parse_grammar(BIT_GRAMMAR)
        with pytest.raises(InvalidTreeError):
            unparse(DerivationTree("<START>", 0), g)

    def test_kept_text_is_per_grammar(self):
        # two grammars over the same tokens, with other literals
        g = parse_grammar(BIT_GRAMMAR)
        other = parse_grammar(BIT_GRAMMAR.replace("do_CSIRS", "do_SRS"))
        t = DerivationTree("<START>", 0, (DerivationTree("<BIT>", 1),))
        assert unparse(t, g) == "do_CSIRS = 1;"
        assert unparse(t, other) == "do_SRS = 1;"
        assert unparse(t, g) == "do_CSIRS = 1;"
        assert unparse(t, g) is unparse(t, g)

    def test_kept_text_does_not_vouch_for_another_grammar(self):
        g = parse_grammar(BIT_GRAMMAR)
        one_bit = parse_grammar(
            json.dumps({"<START>": [["do_CSIRS = ", "<BIT>", ";"]], "<BIT>": [["0"]]})
        )
        t = DerivationTree("<START>", 0, (DerivationTree("<BIT>", 1),))
        assert unparse(t, g) == "do_CSIRS = 1;"
        for _ in range(2):
            with pytest.raises(InvalidTreeError):
                unparse(t, one_bit)
        assert unparse(t, g) == "do_CSIRS = 1;"


class TestValidateTree:
    """A tree is valid against a grammar exactly when ``unparse`` accepts it."""

    def test_fresh_tree_true(self):
        g = parse_grammar(BIT_GRAMMAR)
        unparse(generate_tree(g, 9), g)

    def test_rule_index_at_rule_count_false(self):
        g = parse_grammar(BIT_GRAMMAR)
        with pytest.raises(InvalidTreeError):
            unparse(DerivationTree("<BIT>", 2), g)

    def test_child_removed_false(self):
        g = parse_grammar(BIT_GRAMMAR)
        with pytest.raises(InvalidTreeError):
            unparse(DerivationTree("<START>", 0), g)

    def test_wrong_child_token_false(self):
        g = parse_grammar(BIT_GRAMMAR)
        bad = DerivationTree("<START>", 0, (DerivationTree("<START>", 0),))
        with pytest.raises(InvalidTreeError):
            unparse(bad, g)

    def test_unknown_token_false(self):
        g = parse_grammar(BIT_GRAMMAR)
        with pytest.raises(InvalidTreeError):
            unparse(DerivationTree("<NOPE>", 0), g)


class TestTreeSize:
    def test_leaf(self):
        assert tree_size(DerivationTree("<BIT>", 0)) == 1

    def test_root_plus_two_leaves(self):
        t = DerivationTree(
            "<X>", 0, (DerivationTree("<A>", 0), DerivationTree("<B>", 0))
        )
        assert tree_size(t) == 3

    def test_subtree_replacement_arithmetic(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        t = generate_tree(g, 12, 16)
        replaced = DerivationTree(t.token, t.rule_index, (minimal_tree(g, "<DIGITS>"),))
        removed = tree_size(t.children[0])
        added = tree_size(minimal_tree(g, "<DIGITS>"))
        assert tree_size(replaced) == tree_size(t) - removed + added


class TestMinimalTree:
    def test_minimal_is_smallest_and_lowest_index(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        t = minimal_tree(g, "<DIGITS>")
        assert t.rule_index == 0
        assert tree_size(t) == 2
        assert unparse(t, g) == "0"
        unparse(t, g)


class TestDeriveTree:
    def test_exact_parse_round_trip(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        t = derive_tree(g, "142")
        assert t is not None
        unparse(t, g)
        assert unparse(t, g) == "142"

    def test_underivable_text(self):
        g = parse_grammar(DIGITS_GRAMMAR)
        assert derive_tree(g, "x1") is None
        assert derive_tree(g, "") is None

    def test_bit_grammar_full_line(self):
        g = parse_grammar(BIT_GRAMMAR)
        t = derive_tree(g, "do_CSIRS = 1;")
        assert t is not None
        assert t.children[0].rule_index == 1

    def test_deep_derivation_gives_up_whatever_the_caller_stack(self):
        g = parse_grammar(RIGHT_RECURSIVE_GRAMMAR)

        def from_depth(frames, text):
            if frames == 0:
                return derive_tree(g, text)
            return from_depth(frames - 1, text)

        for frames in (0, 300):
            t = from_depth(frames, "1" * 100)
            assert t is not None and unparse(t, g) == "1" * 100
            assert from_depth(frames, "1" * 400) is None

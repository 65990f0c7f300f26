"""Explain pipeline: log parsing, source scanning, backends, report bytes."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conffuzz import explain
from conffuzz.explain import (
    NO_SOURCE_MATCH,
    UNKNOWN,
    BackendError,
    GlossaryFileBackend,
    HttpLLMBackend,
    MalformedTestLineError,
    ParamInfo,
    TestCaseRecord,
    backend_from_spec,
    explain_params,
    extract_unique_params,
    parse_test_log,
    write_report,
)

EXPECTED_VARS = {
    "s": "snr0",
    "S": "snr1",
    "n": "n_trials",
    "R": "N_RB_DL",
    "b": "band",
    "c": "coreset0_index",
    "P": "phy_cell_id",
}


class EchoBackend:
    def explain(self, var_name, context):
        return var_name


def resolved_var(flag, source_root):
    """The variable ``explain_params`` resolves ``flag`` to."""
    (info,) = explain_params({flag: ("1",)}, EchoBackend(), source_root)
    return info.var_name


@pytest.fixture()
def log_text(explain_dir):
    return (explain_dir / "pbch.log").read_text()


@pytest.fixture()
def src_root(explain_dir):
    return explain_dir / "src"


@pytest.fixture()
def glossary(explain_dir):
    return GlossaryFileBackend(explain_dir / "glossary.tsv")


class TestParseTestLog:
    def test_fixture_has_seven_records(self, log_text):
        records = parse_test_log(log_text)
        assert len(records) == 7
        assert records[0].name == "nr_pbchsim.106rb.nominal"
        assert records[0].args == (
            ("s", "2"),
            ("S", "5"),
            ("n", "10"),
            ("R", "106"),
            ("b", "78"),
            ("c", "12"),
            ("P", "0"),
        )

    def test_negative_number_is_a_value(self, log_text):
        records = parse_test_log(log_text)
        assert ("s", "-2") in records[1].args

    def test_flag_followed_by_flag_is_boolean(self, log_text):
        # last fixture record: "-c -P 500"
        assert parse_test_log(log_text)[6].args[-2:] == (("c", "1"), ("P", "500"))

    def test_noise_lines_ignored(self):
        assert parse_test_log("nothing here\nnor here\n") == []
        assert parse_test_log("") == []

    def test_keyword_case_insensitive_and_indented(self):
        records = parse_test_log("  TEST: a :: -x 1\n\tTest: b :: -y 2\n")
        assert [r.name for r in records] == ["a", "b"]

    def test_trailing_lone_flag(self):
        records = parse_test_log("test: t :: -s\n")
        assert records[0].args == (("s", "1"),)

    def test_repeated_flag_keeps_occurrences(self):
        records = parse_test_log("test: t :: -a 1 -a 2 -a 1\n")
        assert records[0].args == (("a", "1"), ("a", "2"), ("a", "1"))

    def test_double_dash_flags(self):
        records = parse_test_log("test: t :: --threads 4 --fast\n")
        assert records[0].args == (("threads", "4"), ("fast", "1"))

    def test_no_args_is_allowed(self):
        assert parse_test_log("test: bare :: \n")[0].args == ()

    @pytest.mark.parametrize(
        "line,line_no",
        [
            ("test: missing-separator -s 2", 1),
            ("ok line\ntest:  :: -s 2", 2),
            ("test: t :: stray 2", 1),
            ("test: t :: -s 2 oops extra", 1),
        ],
    )
    def test_malformed_lines_raise_with_position(self, line, line_no):
        with pytest.raises(MalformedTestLineError) as info:
            parse_test_log(line)
        assert info.value.line_no == line_no


class TestParamRanges:
    @pytest.mark.parametrize(
        "occurrences,expected",
        [
            (["2", "5", "2"], ("2", "5")),
            ([], ()),
            (["1", "0", "1", "0"], ("1", "0")),
        ],
    )
    def test_get_param_range(self, occurrences, expected):
        records = [TestCaseRecord("t", (("x", v),)) for v in occurrences]
        assert extract_unique_params(records).get("x", ()) == expected

    def test_fixture_ranges(self, log_text):
        params = extract_unique_params(parse_test_log(log_text))
        assert list(params) == ["s", "S", "n", "R", "b", "c", "P"]
        assert params["s"] == ("2", "-2", "0")
        assert params["S"] == ("5", "2", "4")
        assert params["n"] == ("10", "100")
        assert params["R"] == ("106", "24")
        assert params["b"] == ("78", "41")
        assert params["c"] == ("12", "2", "1")
        assert params["P"] == ("0", "3", "500")

    def test_disjoint_flags_concatenate(self):
        records = parse_test_log("test: a :: -x 1\ntest: b :: -y 2\n")
        assert list(extract_unique_params(records)) == ["x", "y"]


class TestFindParamName:
    @pytest.mark.parametrize("flag,var", sorted(EXPECTED_VARS.items()))
    def test_fixture_switch_arms(self, src_root, flag, var):
        assert resolved_var(flag, src_root) == var

    def test_unknown_flag(self, src_root):
        assert resolved_var("z", src_root) == UNKNOWN

    def test_arm_without_assignment(self, src_root):
        assert resolved_var("h", src_root) == UNKNOWN

    def test_empty_tree(self, tmp_path):
        assert resolved_var("s", tmp_path) == UNKNOWN

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(OSError):
            resolved_var("s", tmp_path / "nope")

    def test_lexicographically_first_file_wins(self, tmp_path):
        (tmp_path / "a.c").write_text("case 'x': first_var = 1; break;\n")
        (tmp_path / "b.c").write_text("case 'x': second_var = 1; break;\n")
        assert resolved_var("x", tmp_path) == "first_var"

    def test_first_match_decides_even_without_assignment(self, tmp_path):
        (tmp_path / "a.c").write_text("case 'x': puts(\"x\"); break;\n")
        (tmp_path / "b.c").write_text("case 'x': real = 1; break;\n")
        assert resolved_var("x", tmp_path) == UNKNOWN

    def test_non_source_files_skipped(self, tmp_path):
        (tmp_path / "notes.txt").write_text("case 'x': textual = 1; break;\n")
        assert resolved_var("x", tmp_path) == UNKNOWN

    def test_array_assignment_target(self, tmp_path):
        (tmp_path / "a.c").write_text("case 'x': table[idx] = 1; break;\n")
        assert resolved_var("x", tmp_path) == "table"

    def test_comparison_is_not_assignment(self, tmp_path):
        (tmp_path / "a.c").write_text(
            "case 'x': if (mode == 2) { level = 3; } break;\n"
        )
        assert resolved_var("x", tmp_path) == "level"


class RecordingBackend:
    def __init__(self, mapping):
        self.mapping = mapping
        self.calls = []

    def explain(self, var_name, context):
        self.calls.append((var_name, context))
        if var_name not in self.mapping:
            raise BackendError(f"no entry for {var_name}")
        return self.mapping[var_name]


class TestExplainParams:
    def test_full_fixture_pipeline(self, log_text, src_root, glossary):
        params = extract_unique_params(parse_test_log(log_text))
        infos = explain_params(params, glossary, src_root)
        assert [i.flag for i in infos] == ["s", "S", "n", "R", "b", "c", "P"]
        assert [i.var_name for i in infos] == [
            EXPECTED_VARS[i.flag] for i in infos
        ]
        assert infos[0].meaning == (
            "Starting signal-to-noise ratio of the simulation sweep, in dB."
        )

    def test_context_snippet_is_the_switch_arm(self, src_root):
        backend = RecordingBackend({"snr0": "m"})
        explain_params({"s": ("2",)}, backend, src_root)
        (var, context), = backend.calls
        assert var == "snr0"
        assert context.startswith("case 's':")
        assert "snr0 = atof(optarg);" in context
        assert len(context) <= 500

    def test_memoized_per_var_name(self, tmp_path):
        (tmp_path / "a.c").write_text(
            "case 'x': shared = 1; break;\ncase 'y': shared = 2; break;\n"
        )
        backend = RecordingBackend({"shared": "m"})
        infos = explain_params(
            {"x": ("1",), "y": ("2",)}, backend, tmp_path
        )
        assert [i.meaning for i in infos] == ["m", "m"]
        assert len(backend.calls) == 1

    def test_unknown_skips_backend(self, tmp_path):
        backend = RecordingBackend({})
        infos = explain_params({"q": ("1",)}, backend, tmp_path)
        assert infos == [ParamInfo("q", UNKNOWN, NO_SOURCE_MATCH, ("1",))]
        assert backend.calls == []

    @pytest.fixture()
    def reads(self, monkeypatch):
        names = []
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            names.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        return names

    def test_each_file_read_once_per_run(self, tmp_path, reads):
        (tmp_path / "a.c").write_text("case 'x': ex = 1; break;\n")
        (tmp_path / "b.c").write_text("case 'w': dbl = 1; break;\n")
        (tmp_path / "c.c").write_text("case 'y': why = 1; case 'w': no = 1;\n")
        params = {"x": ("1",), "y": ("2",), "z": ("3",), "w": ("4",)}
        backend = RecordingBackend(dict.fromkeys(["ex", "why", "dbl"], "m"))
        infos = explain_params(params, backend, tmp_path)
        assert [i.var_name for i in infos] == ["ex", "why", UNKNOWN, "dbl"]
        assert reads == ["a.c", "b.c", "c.c"]

    def test_scan_stops_once_every_flag_resolves(self, tmp_path, reads):
        (tmp_path / "a.c").write_text("case 'x': ex = 1; break;\n")
        (tmp_path / "b.c").write_text("case 'y': why = 1; break;\n")
        assert resolved_var("x", tmp_path) == "ex"
        assert reads == ["a.c"]

    def test_no_flags_read_nothing(self, tmp_path, reads):
        assert explain_params({}, RecordingBackend({}), tmp_path / "nope") == []
        assert reads == []

    def test_backend_error_carries_partial(self, src_root):
        backend = RecordingBackend({"snr0": "first meaning"})
        params = {"s": ("2",), "S": ("5",), "n": ("10",)}
        with pytest.raises(BackendError) as info:
            explain_params(params, backend, src_root)
        assert [i.flag for i in info.value.partial] == ["s"]
        assert info.value.partial[0].meaning == "first meaning"


class TestWriteReport:
    def test_reproduces_expected_bytes(self, explain_dir, log_text, src_root, glossary):
        tests = parse_test_log(log_text)
        infos = explain_params(extract_unique_params(tests), glossary, src_root)
        report = write_report(infos, tests)
        assert report == (explain_dir / "expected_report.txt").read_text()

    def test_writes_file_when_asked(self, tmp_path):
        infos = [ParamInfo("s", "snr0", "m", ("2", "5"))]
        tests = [TestCaseRecord("t", (("s", "2"),))]
        out = tmp_path / "report.txt"
        text = write_report(infos, tests, out)
        assert out.read_text() == text
        assert text == "[tests] 1\n- s (snr0) -> m ; range = {2, 5}\n"

    def test_zero_params_header_only(self):
        assert write_report([], []) == "[tests] 0\n"


class TestGlossaryBackend:
    def test_lookup(self, glossary):
        assert glossary.explain("band", "") == (
            "NR frequency band used to place the SSB."
        )

    def test_missing_entry_raises(self, glossary):
        with pytest.raises(BackendError):
            glossary.explain("no_such_var", "")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# header\n\nkey\tvalue text\n")
        assert GlossaryFileBackend(path).explain("key", "") == "value text"

    def test_line_without_tab_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("key value\n")
        with pytest.raises(BackendError):
            GlossaryFileBackend(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BackendError):
            GlossaryFileBackend(tmp_path / "nope.tsv")


class LLMServer:
    """A localhost JSON endpoint that records each request it receives.

    ``reply`` is the (status, body) every POST gets; ``release``, when set,
    is waited on before replying, so a test can hold the reply back.
    """

    def __init__(self, reply=(200, b'{"text": "a meaning"}')):
        self.reply = reply
        self.release = None
        self.received = []
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                server.received.append((self.path, self.headers, body))
                if server.release is not None:
                    server.release.wait(5)
                status, payload = server.reply
                try:
                    self.send_response(status)
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except OSError:
                    pass  # the client gave up waiting

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_port}"
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self.thread.start()

    def close(self):
        if self.release is not None:
            self.release.set()
        self.httpd.shutdown()
        self.thread.join(timeout=5)
        self.httpd.server_close()
        assert not self.thread.is_alive()


@pytest.fixture()
def llm_server():
    server = LLMServer()
    yield server
    server.close()


def _closed_port() -> int:
    """A localhost port that was just bound and released, so nothing listens."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestHttpBackend:
    def test_posts_prompt_and_returns_text(self, monkeypatch, llm_server):
        monkeypatch.delenv("CONFFUZZ_LLM_TOKEN", raising=False)
        backend = HttpLLMBackend(llm_server.url + "/api")
        assert backend.explain("snr0", "case 's': snr0 = 1;") == "a meaning"
        [(path, headers, body)] = llm_server.received
        assert path == "/api"
        assert json.loads(body) == {
            "prompt": (
                "Explain the variable snr0 in the context of 5G gNB "
                "software: case 's': snr0 = 1;"
            )
        }
        assert headers["Content-Type"] == "application/json"
        assert "Authorization" not in headers
        assert explain.HTTP_TIMEOUT_S == 30.0

    def test_bearer_token_from_env(self, monkeypatch, llm_server):
        monkeypatch.setenv("CONFFUZZ_LLM_TOKEN", "sekrit")
        HttpLLMBackend(llm_server.url).explain("v", "")
        [(_, headers, _)] = llm_server.received
        assert headers["Authorization"] == "Bearer sekrit"

    @pytest.mark.parametrize(
        "response",
        [
            (500, b'{"text": "x"}', "llm endpoint returned 500"),
            (200, b"not json", "malformed llm response"),
            (200, b'{"wrong": "shape"}', "malformed llm response"),
            (200, b'{"text": 42}', "text is not a string"),
            (404, b"", "llm endpoint returned 404"),
            (201, b'{"text": "x"}', "llm endpoint returned 201"),
            (200, b'["text"]', "malformed llm response"),
        ],
    )
    def test_bad_responses_raise(self, llm_server, response):
        status, body, message = response
        llm_server.reply = (status, body)
        with pytest.raises(BackendError, match=message):
            HttpLLMBackend(llm_server.url).explain("v", "")

    def test_network_failure_raises(self):
        url = f"http://127.0.0.1:{_closed_port()}"
        with pytest.raises(BackendError, match="llm request failed"):
            HttpLLMBackend(url).explain("v", "")

    def test_timeout_raises(self, llm_server, monkeypatch):
        llm_server.release = threading.Event()
        monkeypatch.setattr(explain, "HTTP_TIMEOUT_S", 0.2)
        backend = HttpLLMBackend(llm_server.url)
        with pytest.raises(BackendError, match="llm request failed"):
            backend.explain("v", "")


class TestBackendFromSpec:
    def test_glossary_spec(self, explain_dir):
        backend = backend_from_spec(f"glossary:{explain_dir / 'glossary.tsv'}")
        assert isinstance(backend, GlossaryFileBackend)

    def test_http_spec_keeps_full_url(self):
        backend = backend_from_spec("http://llm.example/v1/explain")
        assert isinstance(backend, HttpLLMBackend)
        assert backend.url == "http://llm.example/v1/explain"

    def test_https_spec(self):
        assert backend_from_spec("https://llm.example").url == "https://llm.example"

    @pytest.mark.parametrize("spec", ["", "glossary", "glossary:", "ftp:x"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            backend_from_spec(spec)

import contextlib
import io
import sys
import time
from collections import Counter

from conftest import EXAMPLE3_TEXT, full_minus_pair, instance_text

import simatroid.chains
import simatroid.triangulate

from simatroid import (GF2, SimplicialMatroid, build_complex, check_chordal_graph, gen_random,
                      parse_decomposition, parse_dperfect, parse_instance, parse_superdense,
                      verify_decomposition, verify_dperfect, verify_superdense, write_instance,
                      QQ)
from simatroid.cli import _build_parser, main, run_command

CHORD4_TEXT = "4 2\n1 2\n1 3\n1 4\n2 3\n3 4\n"
CYCLE4_TEXT = "4 2\n1 2\n1 4\n2 3\n3 4\n"


def write_tmp(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_report(tmp_path):
    code, text = run_command(["analyze", "--file", write_tmp(tmp_path, CHORD4_TEXT)])
    assert code == 0
    lines = text.splitlines()
    assert lines[:4] == ["n 4", "k 2", "field GF(2)", "faces 5"]
    assert "rank 3" in lines
    assert "nullity 2" in lines
    assert "facets 2" in lines
    assert "facet 1 2 3" in lines
    assert "facet 1 3 4" in lines
    assert "simplicial-faces 2" in lines
    assert "simplicial 2" in lines and "simplicial 4" in lines


def test_analyze_reads_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(CHORD4_TEXT))
    code, text = run_command(["analyze"])
    assert code == 0 and "rank 3" in text


def test_field_override(tmp_path):
    path = write_tmp(tmp_path, CHORD4_TEXT)
    assert "field GF(7)" in run_command(["analyze", "--file", path, "--field", "7"])[1]
    assert "field QQ" in run_command(["analyze", "--file", path, "--field", "q"])[1]
    code, text = run_command(["analyze", "--file", path, "--field", "6"])
    assert code == 1 and "not prime" in text


def test_out_writes_file(tmp_path):
    report = tmp_path / "report.txt"
    code, text = run_command(["analyze", "--file", write_tmp(tmp_path, CHORD4_TEXT),
                              "--out", str(report)])
    assert code == 0 and text == ""
    assert "rank 3" in report.read_text()


def test_reports_are_deterministic(tmp_path):
    path = write_tmp(tmp_path, CHORD4_TEXT)
    for argv in (["analyze", "--file", path], ["perfect", "--file", path],
                 ["superdense", "--file", path], ["triangulate", "--file", path]):
        assert run_command(argv) == run_command(argv)


def test_perfect_true_and_certificate_verifies(tmp_path):
    code, text = run_command(["perfect", "--file", write_tmp(tmp_path, CHORD4_TEXT)])
    assert code == 0 and "d-perfect true" in text
    block = text[text.index("begin d-perfect"):]
    cert = parse_dperfect(block)
    verify_dperfect(build_complex(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]), GF2, cert)


def test_perfect_false_for_bare_cycle(tmp_path):
    code, text = run_command(["perfect", "--file", write_tmp(tmp_path, CYCLE4_TEXT)])
    assert code == 0 and "d-perfect false" in text


def test_perfect_decides_beyond_graphs(tmp_path):
    _, text = run_command(["gen", "projective-plane"])
    path = write_tmp(tmp_path, text, "proj.txt")
    code, _ = run_command(["perfect", "--file", path, "--strategy", "greedy"])
    assert code == 1
    code, report = run_command(["perfect", "--file", path])
    assert code == 0 and "d-perfect false" in report


def test_superdense_round_trips(tmp_path):
    code, text = run_command(["superdense", "--file", write_tmp(tmp_path, CHORD4_TEXT)])
    assert code == 0 and "superdense true" in text
    m = SimplicialMatroid(build_complex(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]), GF2)
    cert = parse_superdense(text[text.index("begin superdense"):], m.ground)
    verify_superdense(m, cert)
    code, text = run_command(["superdense", "--file", write_tmp(tmp_path, CYCLE4_TEXT, "c4.txt")])
    assert code == 0 and "superdense false" in text


def test_supersolvable_paths(tmp_path):
    assert "supersolvable true" in run_command(
        ["supersolvable", "--file", write_tmp(tmp_path, CHORD4_TEXT)])[1]
    assert "supersolvable false" in run_command(
        ["supersolvable", "--file", write_tmp(tmp_path, CYCLE4_TEXT, "c4.txt")])[1]
    # graphs of any size are decided by chordality
    for n, density, seed in ((6, "9/10", 2), (12, "1/2", 3)):
        inst = gen_random(n, 2, density, seed)
        path = write_tmp(tmp_path, write_instance(inst), "big.txt")
        code, text = run_command(["supersolvable", "--file", path])
        want = "true" if check_chordal_graph(inst.faces, n) else "false"
        assert code == 0 and f"supersolvable {want}" in text.splitlines()


def test_triangulate_paths(tmp_path):
    code, text = run_command(["triangulate", "--file", write_tmp(tmp_path, CHORD4_TEXT)])
    assert code == 0 and "triangulable true" in text and "strongly-triangulable true" in text
    code, text = run_command(["triangulate", "--file", write_tmp(tmp_path, CYCLE4_TEXT, "c4.txt")])
    assert code == 0 and "triangulable false" in text and "strongly-triangulable false" in text
    _, proj = run_command(["gen", "projective-plane"])
    path = write_tmp(tmp_path, proj, "proj.txt")
    code, text = run_command(["triangulate", "--file", path])
    assert code == 0 and "triangulable false" in text
    code, text = run_command(["triangulate", "--file", path, "--field", "q"])
    assert code == 0 and "strongly-triangulable true" in text


def test_triangulate_guard(tmp_path):
    path = write_tmp(tmp_path, write_instance(gen_random(5, 2, 1, 0)), "k5.txt")
    assert run_command(["triangulate", "--file", path, "--max-brute", "1"])[0] == 1
    code, text = run_command(["triangulate", "--file", path])
    assert code == 0 and "strongly-triangulable true" in text
    # the full (12, 3) complex has a peel, which decides before any guard
    path = write_tmp(tmp_path, write_instance(gen_random(12, 3, 1, 0)), "full-12-3.txt")
    code, text = run_command(["triangulate", "--file", path])
    assert code == 0 and text.splitlines()[-1] == "strongly-triangulable true"
    # no peel: two copies of full (6, 3) minus 123 and 456 are scanned in full,
    # three copies (18 vertices) are refused before the scan starts
    for copies, field in ((2, "2"), (2, "q"), (3, "2")):
        text = instance_text(6 * copies, 3, field, full_minus_pair(copies=copies))
        t0 = time.perf_counter()
        code, report = run_command(["triangulate", "--file", write_tmp(tmp_path, text)])
        if copies == 2:
            assert code == 0 and report.splitlines()[-1] == "strongly-triangulable true"
        else:
            assert time.perf_counter() - t0 < 0.2
            assert code == 2 and report.splitlines()[-2:] == [
                "strongly-triangulable inconclusive",
                "note strong triangulability check needs a scan of 2^18 = 262144 vertex sets, "
                "above the limit of 65536"]


def test_prop54_pipeline(tmp_path):
    code, text = run_command(["gen", "prop54", "--n", "5", "--k", "2"])
    assert code == 0
    path = write_tmp(tmp_path, text, "w4.txt")
    code, text = run_command(["triangulate", "--file", path])
    assert code == 0 and "triangulable true" in text and "strongly-triangulable false" in text
    assert run_command(["gen", "prop54"])[0] == 1  # missing --n/--k


def test_decompose(tmp_path):
    path = write_tmp(tmp_path, CHORD4_TEXT)
    code, text = run_command(["decompose", "--file", path, "--field", "q",
                              "--circuit", "1 2 , 1 3 , 2 3"])
    assert code == 0
    assert "circuit 1 2 , 1 3 , 2 3" in text
    cert = parse_decomposition(text[text.index("begin decomposition"):], QQ)
    m = SimplicialMatroid(build_complex(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]), QQ)
    verify_decomposition(m, cert)


def test_decompose_errors(tmp_path):
    code, text = run_command(["decompose", "--file", write_tmp(tmp_path, CYCLE4_TEXT),
                              "--circuit", "1 2 , 2 3 , 3 4 , 1 4"])
    assert code == 1 and "no complete simplicial peel" in text
    code, text = run_command(["decompose", "--file", write_tmp(tmp_path, CHORD4_TEXT, "ch.txt"),
                              "--circuit", "1 2 , 2 3"])
    assert code == 1 and "error" in text


INSTANCE_COMMANDS = ("analyze", "perfect", "superdense", "supersolvable", "triangulate",
                     "decompose")


def test_each_command_builds_one_matroid_and_each_column_set_once(tmp_path, monkeypatch):
    # a command answers from one SimplicialMatroid, and no set of boundary
    # columns (same faces over the same rows) is built twice
    matroids = []
    real_init = SimplicialMatroid.__init__

    def counting_init(self, *args, **kwargs):
        matroids.append(self)
        real_init(self, *args, **kwargs)

    builds = Counter()
    real_columns = simatroid.chains.boundary_columns

    def counting_columns(*args):
        builds[tuple(tuple(a) if isinstance(a, list) else a for a in args)] += 1
        return real_columns(*args)

    monkeypatch.setattr(SimplicialMatroid, "__init__", counting_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("simatroid") and vars(module).get("boundary_columns") is real_columns:
            monkeypatch.setattr(module, "boundary_columns", counting_columns)
    cases = [(CHORD4_TEXT, "2", "1 2 , 1 3 , 2 3"), (CHORD4_TEXT, "q", "1 2 , 1 3 , 2 3"),
             (EXAMPLE3_TEXT, "3", "4 5 6 , 4 5 7 , 4 6 7 , 5 6 7"),
             (instance_text(6, 3, "q", full_minus_pair()), "q", "1 2 4 , 1 2 5 , 1 4 5 , 2 4 5")]
    for text, field, circuit in cases:
        path = write_tmp(tmp_path, text)
        for command in INSTANCE_COMMANDS:
            matroids.clear()
            builds.clear()
            extra = ["--circuit", circuit] if command == "decompose" else []
            code, report = run_command([command, "--file", path, "--field", field, *extra])
            assert code in (0, 1), report
            assert len(matroids) == 1, (command, report)
            assert max(builds.values(), default=1) == 1, (command, sorted(builds.values()))
            if command == "triangulate":
                assert len(builds) == 2     # the k-face and the (k+1)-face columns


def test_triangulate_tests_the_whole_complex_once(tmp_path, monkeypatch):
    # is_triangulable decides the whole complex; the strong check starts after it
    whole = []
    real = simatroid.triangulate._triangulable_on

    def counting(m, w):
        span = 0
        for f in m.ground:
            span |= f
        whole.append(w & span == span)
        return real(m, w)

    monkeypatch.setattr(simatroid.triangulate, "_triangulable_on", counting)
    for text in (CHORD4_TEXT, CYCLE4_TEXT, instance_text(6, 3, "2", full_minus_pair())):
        whole.clear()
        code, report = run_command(["triangulate", "--file", write_tmp(tmp_path, text)])
        assert code == 0, report
        assert whole.count(True) == 1, report


def test_dual_check():
    code, text = run_command(["dual-check", "--n", "5", "--k", "2"])
    assert code == 0 and "duality true" in text
    # no guard flag: the one guard counts faces before any work
    assert run_command(["dual-check", "--n", "7", "--k", "2", "--max-brute", "7"])[0] == 1
    code, text = run_command(["dual-check", "--n", "8", "--k", "2"])
    assert code == 0 and "duality true" in text
    # inconclusive under the old span guards, decided by the witness
    for n, k, field in (("7", "2", "q"), ("6", "3", "q"), ("7", "4", "2")):
        t0 = time.perf_counter()
        code, text = run_command(["dual-check", "--n", n, "--k", k, "--field", field])
        assert time.perf_counter() - t0 < 0.1
        assert code == 0 and text.splitlines()[-1] == "duality true"
    # C(64, 32), about 1.8e18 faces, is refused before anything is built
    t0 = time.perf_counter()
    code, text = run_command(["dual-check", "--n", "64", "--k", "32"])
    assert time.perf_counter() - t0 < 0.1
    assert code == 2 and text.splitlines()[-2:] == [
        "duality inconclusive",
        "note duality check needs C(64, 32) = 1832624140942590534 faces, "
        "above the limit of 4096 faces"]
    code, text = run_command(["dual-check", "--n", "4", "--k", "9"])
    assert code == 1
    # out-of-range n is bad input, not a guard trip
    code, text = run_command(["dual-check", "--n", "65", "--k", "2"])
    assert code == 1 and text.startswith("error: duality check needs")


def test_gen_random_matches_library():
    code, text = run_command(["gen", "random", "--n", "5", "--k", "2",
                              "--seed", "42", "--density", "1/2"])
    assert code == 0
    assert text == write_instance(gen_random(5, 2, "1/2", 42))
    assert parse_instance(text) == gen_random(5, 2, "1/2", 42)
    assert run_command(["gen", "random"])[0] == 1


def test_gen_then_analyze_pipeline(tmp_path):
    path = tmp_path / "gen.txt"
    code, text = run_command(["gen", "random", "--n", "6", "--k", "3",
                              "--seed", "7", "--density", "1/3", "--out", str(path)])
    assert code == 0 and text == ""
    code, text = run_command(["analyze", "--file", str(path)])
    assert code == 0 and "n 6" in text and "k 3" in text and "faces 9" in text


def test_usage_errors(tmp_path):
    quiet = io.StringIO()
    with contextlib.redirect_stderr(quiet):
        assert run_command(["no-such-command"])[0] == 1
    with contextlib.redirect_stdout(quiet):
        assert run_command(["--help"])[0] == 0
    assert run_command(["analyze", "--file", str(tmp_path / "missing.txt")])[0] == 1
    bad = write_tmp(tmp_path, "4 2\n9 9\n", "bad.txt")
    code, text = run_command(["analyze", "--file", bad])
    assert code == 1 and "line 2" in text


def test_main_streams(tmp_path, monkeypatch):
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stderr", err)
    assert main(["analyze", "--file", write_tmp(tmp_path, CHORD4_TEXT)]) == 0
    assert "rank 3" in out.getvalue() and err.getvalue() == ""
    before = out.getvalue()
    assert main(["analyze", "--file", str(tmp_path / "missing.txt")]) == 1
    assert out.getvalue() == before and "error:" in err.getvalue()


def test_back_to_back_calls_match_fresh_parser(tmp_path):
    """The parser is built once per process: a run of calls through it
    gives what each call gives from a freshly built parser, so nothing
    one call parses (a field, an output path, a failed parse) leaks into
    the next."""
    path = write_tmp(tmp_path, CHORD4_TEXT)
    report = tmp_path / "report.txt"
    calls = [["perfect", "--file", path, "--out", str(report)],
             ["analyze", "--file", path],
             ["analyze", "--file", path, "--field", "7"],
             ["superdense", "--file", path, "--field", "q"],
             ["perfect", "--file", path],
             ["perfect", "--file", path, "--strategy", "greedy"],
             ["decompose", "--file", path],
             ["--help"],
             ["decompose", "--help"],
             ["dual-check", "--n", "5", "--k", "2", "--field", "3"],
             ["gen", "random", "--n", "5", "--k", "2", "--seed", "3"],
             ["gen", "prop54"],
             ["supersolvable", "--file", path]]

    def observe(argv):
        report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, text = run_command(argv)
        written = report.read_text() if report.exists() else None
        return code, text, out.getvalue(), err.getvalue(), written

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(observe(argv))
    assert [c for c, *_ in fresh] == [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0]
    _build_parser.cache_clear()
    assert [observe(argv) for argv in calls + calls] == fresh + fresh

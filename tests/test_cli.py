import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wtoll as w
from wtoll.cli import main
from wtoll.oracle import oracle_membership

from _strategies import caterpillar, clique_chain, giant_component, shuffled


def run(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if stdin is not None:
                import sys

                old = sys.stdin
                sys.stdin = io.StringIO(stdin)
                try:
                    code = main(argv)
                finally:
                    sys.stdin = old
            else:
                code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.el"
    path.write_text(w.to_edge_list(w.path_graph(4)))
    return str(path)


class TestReports:
    def test_interval(self, p4_file):
        code, out, _ = run(["interval", p4_file, "0", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "interval"
        assert report["input"]["n"] == 4 and report["input"]["m"] == 3
        assert report["result"]["set"] == [0, 1, 2, 3]

    def test_hull_singleton(self, tmp_path):
        path = tmp_path / "k4.el"
        path.write_text(w.to_edge_list(w.complete_graph(4)))
        code, out, _ = run(["hull", str(path), "0"])
        assert code == 0
        assert json.loads(out)["result"]["set"] == [0]

    def test_interval_p5(self, tmp_path):
        path = tmp_path / "p5.el"
        path.write_text(w.to_edge_list(w.path_graph(5)))
        code, out, _ = run(["interval", str(path), "0", "2"])
        assert json.loads(out)["result"]["set"] == [0, 1, 2]

    def test_wtn_plain(self, p4_file):
        code, out, _ = run(["wtn", p4_file, "--plain"])
        assert code == 0
        assert out.strip() == "wtn = 2 (case WTN_K2); witness: 0 3"

    def test_wth_c5(self, tmp_path):
        path = tmp_path / "c5.el"
        path.write_text(w.to_edge_list(w.cycle_graph(5)))
        code, out, _ = run(["wth", str(path)])
        result = json.loads(out)["result"]
        assert result["value"] == 2 and result["case_tag"] == "PRIME_PAIR"

    def test_wtc(self, p4_file):
        code, out, _ = run(["wtc", p4_file])
        result = json.loads(out)["result"]
        assert result["value"] == 3 and result["witness"] == [0, 1, 2]

    def test_decompose(self, p4_file):
        code, out, _ = run(["decompose", p4_file])
        result = json.loads(out)["result"]
        assert result["count"] == 3
        assert [a["vertices"] for a in result["atoms"]] == [[0, 1], [1, 2], [2, 3]]
        assert [a["extremal"] for a in result["atoms"]] == [True, False, True]

    def test_twins(self, tmp_path):
        path = tmp_path / "bt.el"
        path.write_text(w.to_edge_list(w.bowtie_graph()))
        code, out, _ = run(["twins", str(path)])
        assert json.loads(out)["result"]["classes"] == [[0, 1], [2], [3, 4]]

    def test_extreme(self, p4_file):
        code, out, _ = run(["extreme", p4_file])
        assert json.loads(out)["result"]["set"] == [0, 3]

    def test_payload_json_roundtrip(self, p4_file):
        _, out, _ = run(["wth", p4_file])
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_schema_stable(self, p4_file):
        _, out, _ = run(["wtn", p4_file])
        report = json.loads(out)
        assert sorted(report) == ["command", "input", "result"]
        assert sorted(report["input"]) == ["hash", "m", "n"]
        assert sorted(report["result"]) == ["case_tag", "ms", "value", "witness"]

    def test_deterministic_apart_from_timing(self, p4_file):
        _, out1, _ = run(["wth", p4_file])
        _, out2, _ = run(["wth", p4_file])
        r1, r2 = json.loads(out1), json.loads(out2)
        r1["result"].pop("ms"), r2["result"].pop("ms")
        assert r1 == r2

    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("wtn_p4", ["wtn", "{p4}"]),
            ("interval_p4", ["interval", "{p4}", "0", "3"]),
            ("wth_bowtie", ["wth", "{bowtie}"]),
            ("decompose_bowtie", ["decompose", "{bowtie}"]),
            ("hull_p4", ["hull", "{p4}", "0", "2"]),
            ("wtc_bowtie", ["wtc", "{bowtie}"]),
            ("twins_bowtie", ["twins", "{bowtie}"]),
            ("extreme_bowtie", ["extreme", "{bowtie}"]),
            # one --plain case per formatter: sets, invariants, atoms, twin classes
            ("interval_p4", ["interval", "{p4}", "0", "3", "--plain"]),
            ("wth_bowtie", ["wth", "{bowtie}", "--plain"]),
            ("decompose_bowtie", ["decompose", "{bowtie}", "--plain"]),
            ("twins_bowtie", ["twins", "{bowtie}", "--plain"]),
            ("extreme_p4", ["extreme", "{p4}", "--plain"]),
        ],
    )
    def test_golden_reports(self, tmp_path, golden, argv):
        from pathlib import Path

        files = {
            "p4": tmp_path / "p4.el",
            "bowtie": tmp_path / "bowtie.el",
        }
        files["p4"].write_text(w.to_edge_list(w.path_graph(4)))
        files["bowtie"].write_text(w.to_edge_list(w.bowtie_graph()))
        argv = [a.format(p4=files["p4"], bowtie=files["bowtie"]) for a in argv]
        code, out, _ = run(argv)
        assert code == 0
        if "--plain" in argv:
            golden_text = Path(__file__).parent / "data" / "golden" / f"{golden}.txt"
            assert out == golden_text.read_text()
            return
        report = json.loads(out)
        report["result"]["ms"] = None  # timing is the one unpinned field
        expected = json.loads(
            (Path(__file__).parent / "data" / "golden" / f"{golden}.json").read_text()
        )
        assert report == expected


# every library function the CLI calls, by its name in wtoll.cli, and an
# argv that reaches it
CLI_CALLS = [
    ("interval", ["interval", "{p4}", "0", "3"]),
    ("hull", ["hull", "{p4}", "0", "2"]),
    ("wtn", ["wtn", "{p4}"]),
    ("wth", ["wth", "{p4}"]),
    ("wtc_exact", ["wtc", "{p4}"]),
    ("decompose", ["decompose", "{p4}"]),
    ("twin_classes", ["twins", "{p4}"]),
    ("extreme_vertices", ["extreme", "{p4}"]),
]


@pytest.mark.parametrize("name,argv", CLI_CALLS, ids=[name for name, _ in CLI_CALLS])
def test_commands_call_the_module_globals(p4_file, monkeypatch, name, argv):
    # a tracer or a test double swaps these names on wtoll.cli; a command
    # holding the function it imported would bypass the swap
    import wtoll.cli

    calls = []
    real = getattr(wtoll.cli, name)

    def recording(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(wtoll.cli, name, recording)
    code, _, _ = run([p4_file if a == "{p4}" else a for a in argv])
    assert code == 0
    assert calls == [name]


class TestBothForms:
    """Each report builder makes only the form asked for, and both forms
    keep their bytes."""

    GRAPHS = {
        "p90": lambda: w.path_graph(90),
        "caterpillar30": lambda: shuffled(caterpillar(30, 1), 30),
        "k4chain15": lambda: clique_chain(15, 4),
        "k5chain15": lambda: shuffled(clique_chain(15, 5), 15),
        "gnp400": lambda: giant_component(w.gnp_graph(400, 4 / 400, seed=1)),
        "gnp60": lambda: w.gnp_graph(60, 0.3, seed=2),
        "bowtie": w.bowtie_graph,
    }

    def test_digests_of_every_report(self, tmp_path):
        # the digests the reports had when each builder made both forms
        json_digest, plain_digest = hashlib.sha256(), hashlib.sha256()
        for name, make in self.GRAPHS.items():
            g = make()
            path = str(tmp_path / f"{name}.el")
            Path(path).write_text(w.to_edge_list(g))
            for argv in (["interval", path, "0", str(g.n - 1)], ["hull", path, "0", "1", "2"],
                         ["wtn", path], ["wth", path], ["wtc", path], ["decompose", path],
                         ["twins", path], ["extreme", path]):
                code, out, _ = run(argv)
                report = json.loads(out) if code == 0 else None
                if report:
                    report["result"].pop("ms")
                json_digest.update(json.dumps([code, report], sort_keys=True).encode())
                code, out, _ = run([*argv, "--plain"])
                plain_digest.update(json.dumps([code, out]).encode())
        assert json_digest.hexdigest() == (
            "46a4621e6770d4f258b2d74f74ad7436eff409277c934947b4698b2be358df71"
        )
        assert plain_digest.hexdigest() == (
            "5305a69cc0e6f3c8a1746eee849aea2069f973287f844621f63066072b115733"
        )

    def test_plain_skips_the_report_header(self, p4_file, monkeypatch):
        # the input hash appears only in the JSON report
        def no_hash(self):
            raise AssertionError("--plain hashed the graph")

        monkeypatch.setattr(w.Graph, "fingerprint", no_hash)
        assert run(["decompose", p4_file, "--plain"])[:2] == (
            0, "atom 0: {0 1} shared={1} extremal\natom 1: {1 2} shared={1 2}\n"
               "atom 2: {2 3} shared={2} extremal\n"
        )


class TestFormatsAndInput:
    def test_graph6_by_extension(self, tmp_path):
        path = tmp_path / "c5.g6"
        path.write_text(w.to_graph6(w.cycle_graph(5)) + "\n")
        code, out, _ = run(["wth", str(path)])
        assert json.loads(out)["result"]["value"] == 2

    def test_format_override(self, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text(w.to_graph6(w.cycle_graph(5)) + "\n")
        code, out, _ = run(["extreme", str(path), "--format", "g6"])
        assert code == 0 and json.loads(out)["result"]["set"] == []

    def test_graph6_with_two_graphs_is_2(self, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text(w.to_graph6(w.cycle_graph(5)) + "\n" + w.to_graph6(w.path_graph(4)) + "\n")
        code, out, err = run(["wth", str(path)])
        assert code == 2 and out == ""
        assert "line 2" in err

    def test_graph6_with_trailing_blank_lines(self, tmp_path):
        path = tmp_path / "c5.g6"
        path.write_text(w.to_graph6(w.cycle_graph(5)) + "\n\n  \n")
        code, out, _ = run(["wth", str(path)])
        assert code == 0 and json.loads(out)["result"]["value"] == 2

    def test_stdin(self):
        code, out, _ = run(["wtn", "-"], stdin=w.to_edge_list(w.path_graph(4)))
        assert code == 0 and json.loads(out)["result"]["value"] == 2

    def test_all_blank_graph6_is_2(self, tmp_path):
        path = tmp_path / "blank.g6"
        path.write_text("\n  \n\t\n")
        assert run(["wth", str(path)]) == (2, "", "error: empty graph6 input\n")


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("3 1\n0 zero\n")
        code, _, err = run(["wtn", str(path)])
        assert code == 2 and "line 2" in err

    def test_missing_file_is_2(self):
        code, _, _ = run(["wtn", "/nonexistent/g.el"])
        assert code == 2

    def test_vertex_limit_is_2(self):
        code, out, err = run(["wtn", "-"], stdin="1000000000 0\n")
        assert code == 2 and out == ""
        assert err == "error: line 1: vertex count 1000000000 exceeds the limit of 100000\n"

    def test_unknown_family_is_2(self):
        code, _, _ = run(["generate", "moebius", "5"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["generate", "path", "4"], ["bench", "corpus"]], ids=["generate", "bench"]
    )
    def test_plain_outside_the_analyses_is_2(self, argv):
        # --plain formats an analysis report; generate and bench have none
        code, out, err = run([*argv, "--plain"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --plain" in err

    @pytest.mark.parametrize("fmt", ["auto", "el", "g6"])
    def test_bench_format_is_2(self, tmp_path, fmt):
        # bench reads only .el and .g6 files, each by its extension
        code, out, err = run(["bench", str(tmp_path), "--format", fmt])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --format" in err

    @pytest.mark.parametrize("fmt", ["auto", "el", "g6"])
    @pytest.mark.parametrize(
        "argv", [["path", "3"], ["bowtie"], ["random-gnp", "5", "0.5"]],
        ids=["path", "bowtie", "random-gnp"],
    )
    def test_generate_format_outside_clique_reduction_is_2(self, argv, fmt):
        # only clique-reduction reads a graph file; the others write edge lists
        code, out, err = run(["generate", *argv, "--format", fmt])
        assert (code, out) == (2, "")
        assert err == f"error: --format applies to clique-reduction only, not to {argv[0]}\n"

    def test_non_ascii_graph6_is_2(self):
        code, out, err = run(["twins", "-", "--format", "g6"], stdin="A\u00e9\n")
        assert (code, out, err) == (2, "", "error: invalid graph6 character\n")

    @pytest.mark.parametrize(
        "argv,n",
        [
            (["path", "100001"], 100001),
            (["random-gnp", "100001", "0.5"], 100001),
            (["clique-reduction", "{edgeless_448}", "3"], 448 + 448 * 447 // 2),
        ],
        ids=["path", "random-gnp", "clique-reduction"],
    )
    def test_generate_above_vertex_limit_is_2(self, tmp_path, monkeypatch, argv, n):
        # a graph the parsers would refuse is refused before it is built
        import wtoll.cli

        def build(*args, **kwargs):
            raise AssertionError("built a graph above the vertex limit")

        for name in ("path_graph", "gnp_graph", "clique_reduction"):
            monkeypatch.setattr(wtoll.cli, name, build)
        path = tmp_path / "e448.el"
        path.write_text("448 0\n")
        argv = [a.format(edgeless_448=path) for a in argv]
        code, out, err = run(["generate", *argv])
        assert (code, out) == (2, "")
        assert err == f"error: vertex count {n} exceeds the limit of 100000\n"

    def test_disconnected_is_3(self, tmp_path):
        path = tmp_path / "dis.el"
        path.write_text("4 1\n0 1\n")
        for cmd in ("wtn", "wth", "wtc", "decompose"):
            code, _, _ = run([cmd, str(path)])
            assert code == 3, cmd

    def test_wtc_cap_is_4(self, tmp_path):
        path = tmp_path / "long.el"
        path.write_text(w.to_edge_list(w.path_graph(20)))
        code, _, err = run(["wtc", str(path)])
        assert code == 4 and "NP-hard" in err
        code, out, _ = run(["wtc", str(path), "--cap", "20"])
        assert code == 0 and json.loads(out)["result"]["value"] == 19

    def test_wtc_max_clique_budget_is_4(self, tmp_path):
        # G(300, 0.7) is prime; its clique search ran over 285 s unbounded
        path = tmp_path / "dense.el"
        path.write_text(w.to_edge_list(w.gnp_graph(300, 0.7, seed=1)))
        t0 = time.perf_counter()
        code, out, err = run(["wtc", str(path)])
        elapsed = time.perf_counter() - t0
        assert (code, out) == (4, "")
        assert err == (
            "error: maximum clique search refused: it needs more than "
            "100000 search nodes\n"
        )
        assert elapsed < 20

    def test_wtn_budget_is_4(self, tmp_path, monkeypatch):
        import wtoll.invariants

        # k = 0 and wtn = 3, so the general search tries the 6 pool pairs
        path = tmp_path / "fallback.el"
        path.write_text("6 7\n0 1\n0 2\n0 3\n0 4\n0 5\n2 3\n4 5\n")
        monkeypatch.setattr(wtoll.invariants, "_WTN_CANDIDATE_BUDGET", 5)
        code, out, err = run(["wtn", str(path)])
        assert (code, out) == (4, "") and "more than 5 candidates" in err


def run_python(*args, stdin=None, **env_vars):
    """Run a fresh interpreter that imports this wtoll, with ``env_vars``
    added to its environment."""
    src = str(Path(w.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin, capture_output=True, encoding="utf-8", env=env, timeout=60,
    )


class TestModuleEntry:
    """``python -m wtoll`` runs the command line in a fresh interpreter."""

    @staticmethod
    def run_module(*argv, stdin=None, **env_vars):
        return run_python("-m", "wtoll", *argv, stdin=stdin, **env_vars)

    def test_generate_exits_0(self):
        proc = self.run_module("generate", "path", "4")
        assert proc.returncode == 0
        assert w.parse_edge_list(proc.stdout).edges() == w.path_graph(4).edges()

    def test_missing_file_exits_2(self):
        proc = self.run_module("wtn", "/nonexistent.el")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_generate_above_vertex_limit_exits_2(self):
        proc = self.run_module("generate", "path", "100001")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: vertex count 100001 exceeds the limit of 100000\n"

    def test_non_ascii_graph6_exits_2(self):
        proc = self.run_module("twins", "-", "--format", "g6", stdin="A\u00e9\n")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: invalid graph6 character\n"

    def test_file_and_stdin_agree_in_an_ascii_locale(self, tmp_path):
        # with no locale coercion and no UTF-8 mode the C locale's encoding
        # is ASCII; a file is read as UTF-8 all the same, so its UTF-8
        # comment is skipped as it is on stdin
        text = "# caf\u00e9\n" + w.to_edge_list(w.path_graph(4))
        path = tmp_path / "cafe.el"
        path.write_bytes(text.encode("utf-8"))
        c_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        from_file = self.run_module("twins", str(path), **c_locale)
        from_stdin = self.run_module("twins", "-", stdin=text, **c_locale)
        reports = []
        for proc in (from_file, from_stdin):
            assert (proc.returncode, proc.stderr) == (0, "")
            report = json.loads(proc.stdout)
            del report["result"]["ms"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["input"] == {"n": 4, "m": 3, "hash": w.path_graph(4).fingerprint()}

    def test_repeated_main_calls_match_fresh_processes(self, tmp_path):
        # main builds its parser once per process; an option given to one
        # call must not leak into the next
        path = tmp_path / "p20.el"
        path.write_text(w.to_edge_list(w.path_graph(20)))
        calls = [
            ["wtc", str(path), "--cap", "20", "--plain"],
            ["wtc", str(path), "--plain"],
            ["wtc", str(path), "--cap", "20", "--plain"],
        ]
        in_process = [run(argv) for argv in calls]
        fresh = [self.run_module(*argv) for argv in calls[:2]]
        fresh = [(p.returncode, p.stdout, p.stderr) for p in fresh]
        assert in_process[0] == in_process[2] == fresh[0]
        assert in_process[1] == fresh[1]
        assert fresh[0][0] == 0 and fresh[0][1].startswith("wtc = 19 ")
        assert fresh[1][0] == 4 and "cap 16" in fresh[1][2]


class TestGenerate:
    def test_path(self):
        code, out, _ = run(["generate", "path", "4"])
        assert code == 0
        assert w.parse_edge_list(out) == w.path_graph(4)

    @pytest.mark.parametrize(
        "family,params,expected",
        [
            ("cycle", ["5"], w.cycle_graph(5)),
            ("complete", ["4"], w.complete_graph(4)),
            ("star", ["4"], w.star_graph(4)),
            ("bowtie", [], w.bowtie_graph()),
        ],
    )
    def test_families(self, family, params, expected):
        code, out, _ = run(["generate", family, *params])
        assert code == 0 and w.parse_edge_list(out) == expected

    def test_random_gnp_seeded(self):
        _, out1, _ = run(["generate", "random-gnp", "20", "0.3", "--seed", "7"])
        _, out2, _ = run(["generate", "random-gnp", "20", "0.3", "--seed", "7"])
        _, out3, _ = run(["generate", "random-gnp", "20", "0.3", "--seed", "8"])
        assert out1 == out2 != out3

    def test_clique_reduction_with_map(self, tmp_path):
        path = tmp_path / "p3.el"
        path.write_text(w.to_edge_list(w.path_graph(3)))
        code, out, _ = run(["generate", "clique-reduction", str(path), "3"])
        assert code == 0
        assert "added 3 for pair (0, 2)" in out
        assert w.parse_edge_list(out).n == 4

    @pytest.mark.parametrize("name,fmt", [("c5.g6", None), ("c5.txt", "g6"), ("c5.g6", "g6")])
    def test_clique_reduction_reads_format(self, tmp_path, name, fmt):
        path = tmp_path / name
        path.write_text(w.to_graph6(w.cycle_graph(5)) + "\n")
        argv = ["generate", "clique-reduction", str(path), "3"]
        code, out, _ = run(argv + (["--format", fmt] if fmt else []))
        assert code == 0
        assert "added 5 for pair (0, 2)" in out
        assert w.parse_edge_list(out).n == 10

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.el"
        code, _, _ = run(["generate", "path", "6", "--output", str(target)])
        assert code == 0
        assert w.parse_edge_list(target.read_text()) == w.path_graph(6)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["path"], "path takes one parameter: the vertex count"),
            (["bowtie", "3"], "bowtie takes no parameters"),
            (["random-gnp", "10"], "random-gnp takes two parameters: n and p"),
            (["clique-reduction", "g.el"], "clique-reduction takes two parameters: a graph file and k"),
            (["cycle", "2"], "a cycle needs at least 3 vertices"),
            (["random-gnp", "5", "1.5"], "edge probability p must lie in [0, 1], not 1.5"),
            (["random-gnp", "5", "-0.5"], "edge probability p must lie in [0, 1], not -0.5"),
            (["random-gnp", "5", "nan"], "edge probability p must lie in [0, 1], not nan"),
        ],
        ids=["path", "bowtie", "random-gnp", "clique-reduction", "cycle-2",
             "gnp-p-above-1", "gnp-p-negative", "gnp-p-nan"],
    )
    def test_wrong_parameters_are_2(self, argv, message):
        assert run(["generate", *argv]) == (2, "", f"error: {message}\n")


class TestBench:
    def test_header_and_rows(self, tmp_path):
        (tmp_path / "p4.el").write_text(w.to_edge_list(w.path_graph(4)))
        (tmp_path / "k5.el").write_text(w.to_edge_list(w.complete_graph(5)))
        code, out, _ = run(["bench", str(tmp_path)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "graph,n,m,op,value,ms"
        ops = {line.split(",")[3] for line in lines[1:]}
        assert ops == {"interval", "hull", "wtn", "wth"}
        k5_wth = [l for l in lines[1:] if l.startswith("k5.el") and ",wth," in l]
        assert k5_wth[0].split(",")[4] == "5"

    def test_empty_dir(self, tmp_path):
        code, out, _ = run(["bench", str(tmp_path)])
        assert code == 0
        assert out.strip() == "graph,n,m,op,value,ms"

    def test_unreadable_skipped_with_warning(self, tmp_path):
        (tmp_path / "junk.el").write_text("not a graph\n")
        (tmp_path / "latin1.g6").write_bytes(b"\xff\n")  # not UTF-8
        (tmp_path / "p4.el").write_text(w.to_edge_list(w.path_graph(4)))
        code, out, err = run(["bench", str(tmp_path)])
        assert code == 0
        assert "junk.el" in err
        assert "warning: skipping latin1.g6: 'utf-8' codec can't decode byte 0xff" in err
        assert "p4.el" in out
        assert len(out.splitlines()) == 5  # the header and p4.el's four rows

    def test_failing_op_warns_and_the_others_run(self, tmp_path):
        (tmp_path / "dis.el").write_text("4 1\n0 1\n")
        code, out, err = run(["bench", str(tmp_path)])
        assert code == 0
        assert [line.rpartition(",")[0] for line in out.splitlines()[1:]] == [
            "dis.el,4,1,interval,2",
            "dis.el,4,1,hull,2",
        ]
        assert err == "".join(
            f"warning: dis.el {op}: invariant is defined for connected graphs only\n"
            for op in ("wtn", "wth")
        )

    def test_rows_end_in_newline_only(self, tmp_path):
        (tmp_path / "p4.el").write_text(w.to_edge_list(w.path_graph(4)))
        code, out, _ = run(["bench", str(tmp_path)])
        assert code == 0
        assert "\r" not in out and out.endswith("\n")
        assert out.split("\n")[0] == "graph,n,m,op,value,ms"
        assert len(out.split("\n")) == 6  # header, four rows, and the final ""

    def test_empty_graph_reports_interval_and_hull(self, tmp_path):
        # the empty graph has no vertex pair: I and H of the empty set
        (tmp_path / "empty.el").write_text("0 0\n")
        code, out, err = run(["bench", str(tmp_path)])
        assert code == 0
        assert [line.rpartition(",")[0] for line in out.splitlines()[1:]] == [
            "empty.el,0,0,interval,0",
            "empty.el,0,0,hull,0",
        ]
        assert err == "".join(
            f"warning: empty.el {op}: invariant is defined for connected graphs only\n"
            for op in ("wtn", "wth")
        )

    def test_output_file(self, tmp_path):
        (tmp_path / "p4.el").write_text(w.to_edge_list(w.path_graph(4)))
        target = tmp_path / "bench.csv"
        code, out, _ = run(["bench", str(tmp_path), "--output", str(target)])
        assert (code, out) == (0, "")
        lines = target.read_text().splitlines()
        assert lines[0] == "graph,n,m,op,value,ms" and len(lines) == 5

    def test_each_op_starts_from_an_empty_pair_memo(self, tmp_path, monkeypatch):
        # the ms column times what ``wtoll <op> FILE`` times: no op may
        # read walk masks an earlier op left in the memo, nor a stored
        # decomposition or extreme set
        import wtoll.cli

        (tmp_path / "p4.el").write_text(w.to_edge_list(w.path_graph(4)))
        memo_sizes = []
        for name in ("interval", "hull", "wtn", "wth"):
            real = getattr(wtoll.cli, name)

            def recording(g, *args, real=real, name=name):
                memo_sizes.append((name, len(g._pair_cache), len(g._derived)))
                return real(g, *args)

            monkeypatch.setattr(wtoll.cli, name, recording)
        code, _, _ = run(["bench", str(tmp_path)])
        assert code == 0
        assert memo_sizes == [("interval", 0, 0), ("hull", 0, 0), ("wtn", 0, 0), ("wth", 0, 0)]

    def test_rows_apart_from_ms(self, tmp_path):
        from _strategies import caterpillar, clique_chain

        for name, g in [
            ("p4.el", w.path_graph(4)), ("bowtie.el", w.bowtie_graph()),
            ("k4.el", w.complete_graph(4)), ("cat.el", caterpillar(5, 2)),
            ("chain.el", clique_chain(3, 4)),
        ]:
            (tmp_path / name).write_text(w.to_edge_list(g))
        (tmp_path / "c5.g6").write_text(w.to_graph6(w.cycle_graph(5)) + "\n")
        code, out, err = run(["bench", str(tmp_path)])
        assert (code, err) == (0, "")
        values = {
            "bowtie.el,5,6": (3, 3, 4, 4), "c5.g6,5,5": (5, 5, 2, 2),
            "cat.el,15,14": (5, 15, 2, 2), "chain.el,10,18": (3, 3, 6, 6),
            "k4.el,4,6": (2, 2, 4, 4), "p4.el,4,3": (3, 3, 2, 2),
        }
        assert [line.rpartition(",")[0] for line in out.splitlines()] == ["graph,n,m,op,value"] + [
            f"{graph},{op},{value}"
            for graph, row in values.items()
            for op, value in zip(("interval", "hull", "wtn", "wth"), row)
        ]


# the package's public names; each module lists its own in __all__
PUBLIC_NAMES = [
    "AtomDecomposition", "CapExceededError", "DisconnectedGraphError", "Graph",
    "GraphParseError", "InternalConsistencyError", "InvariantResult", "MembershipWitness",
    "ReductionOutput", "TwinPartition", "bowtie_graph", "brute_force_atoms",
    "clique_reduction", "complete_graph", "cycle_graph", "decompose", "extreme_twin_classes",
    "extreme_vertices", "gnp_graph", "hull", "in_weakly_toll_walk", "interval", "is_clique",
    "is_complete", "is_connected", "is_convex", "is_extreme_vertex", "is_prime", "max_clique",
    "parse_edge_list", "parse_graph6", "path_graph", "reduction_edge_list", "star_graph",
    "to_edge_list", "to_graph6", "twin_classes", "wtc_exact", "wth", "wtn",
]
# the walk-enumeration oracle's names: a test aid the package does not
# import, reached as wtoll.oracle.*
ORACLE_NAMES = ["WalkWitness", "oracle_interval", "oracle_membership"]
# test aids that live in tests/_reference.py and tests/_strategies.py, or
# are gone (blocked_set, extremal_atoms), and must not come back into the
# package
REMOVED_NAMES = [
    "blocked_set", "brute_force_wth", "brute_force_wtn", "connected_components",
    "extremal_atoms", "oracle_extreme", "oracle_hull", "random_connected_gnp",
]
MODULES = [
    "atoms", "convexity", "errors", "generators", "graph", "intervals", "invariants", "twins",
]


class TestResultRecords:
    """The result records are immutable named tuples with a stable repr."""

    RECORDS = [
        (
            lambda: w.wtn(w.path_graph(4)),
            "InvariantResult(value=2, witness=frozenset({0, 3}), case_tag='WTN_K2')",
        ),
        (
            lambda: w.in_weakly_toll_walk(w.path_graph(4), 0, 3, 1),
            "MembershipWitness(v_u=1, v_w=2, component=frozenset({1, 2}))",
        ),
        (
            lambda: w.decompose(w.path_graph(3)),
            "AtomDecomposition(atoms=(frozenset({0, 1}), frozenset({1, 2})), "
            "shared=(frozenset({1}), frozenset({1})), exclusive=(frozenset({0}), "
            "frozenset({2})), extremal=(True, True), partner=(1, 0))",
        ),
        (
            lambda: w.twin_classes(w.bowtie_graph()),
            "TwinPartition(classes=(frozenset({0, 1}), frozenset({2}), frozenset({3, 4})))",
        ),
        (
            lambda: w.clique_reduction(w.path_graph(3), 3),
            "ReductionOutput(g_prime=Graph(n=4, m=4), k_prime=3, added={3: (0, 2)})",
        ),
        (
            lambda: oracle_membership(w.path_graph(4), 0, 3, 1),
            "WalkWitness(sequence=(0, 1, 2, 3))",
        ),
    ]

    @pytest.mark.parametrize("make,text", RECORDS, ids=[t.partition("(")[0] for _, t in RECORDS])
    def test_repr_and_immutability(self, make, text):
        record = make()
        assert repr(record) == text
        assert isinstance(record, tuple) and record == tuple(record)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


class TestPublicNames:
    def test_all_snapshot(self):
        assert w.__all__ == sorted(w.__all__) == PUBLIC_NAMES

    def test_each_name_resolves_to_its_module(self):
        for name in PUBLIC_NAMES:
            value = getattr(w, name)
            module = getattr(w, value.__module__.rpartition(".")[2])
            assert name in module.__all__ and getattr(module, name) is value

    def test_dir_holds_the_names_and_the_modules(self):
        # cli and oracle are submodules the package does not import itself;
        # each is an attribute once something has imported it
        public = {name for name in dir(w) if not name.startswith("_")} - {"cli", "oracle"}
        assert public == set(PUBLIC_NAMES) | set(MODULES)

    def test_import_leaves_the_oracle_unloaded(self):
        proc = run_python(
            "-c", "import sys, wtoll, wtoll.cli; print('wtoll.oracle' in sys.modules)"
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_oracle_name_lives_in_its_module_only(self, name):
        import wtoll.oracle

        assert not hasattr(w, name)
        assert name in wtoll.oracle.__all__ and hasattr(wtoll.oracle, name)

    @pytest.mark.parametrize("name", REMOVED_NAMES)
    def test_removed_name_is_gone(self, name):
        assert not hasattr(w, name)
        assert not any(hasattr(getattr(w, module), name) for module in MODULES)

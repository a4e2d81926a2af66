import argparse
import csv
import hashlib
import io
import multiprocessing
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

import pytest

from dmagic import cli, fanout
from dmagic.cli import main
from dmagic.graphs import complete, graph_to_text, parse_graph, prism
from dmagic.search import SearchConfig
from dmagic.verifier import parse_certificate

ROOT = Path(__file__).resolve().parent.parent


def source_env():
    """os.environ with the checkout's src first on PYTHONPATH, for child processes."""
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "dmagic 0.1.0" in capsys.readouterr().out


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2


def test_graph_generation(tmp_path, capsys):
    target = tmp_path / "p4.graph"
    code, out, _ = run(capsys, "graph", "--family", "prism", "--n", "4", "-o", str(target))
    assert code == 0
    assert parse_graph(target.read_text()) == prism(4)
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".dmagic.")]


def test_output_files_take_the_umask(tmp_path, capsys):
    target = tmp_path / "k4.graph"
    previous = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "graph", "--family", "complete", "--n", "4", "-o", str(target))
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


def _no_temp_files(directory):
    return not list(directory.rglob(".dmagic.*"))


@pytest.fixture
def small_chunks(monkeypatch):
    # compare 7 bytes at a time, so that a test's files span many chunks
    monkeypatch.setattr(cli, "_COMPARE_CHUNK", 7)


def test_a_write_of_the_bytes_a_file_holds_leaves_it_untouched(tmp_path, small_chunks):
    # a re-run that writes the same output must not replace the file: its
    # inode and modification time stay (set in the past here), and its
    # change time shows that nothing else was done to it
    target = tmp_path / "out.txt"
    text = "graph 3 3\n0 1\n0 2\n1 2\n"
    cli._write_text(str(target), text)
    os.utime(target, ns=(10**9, 10**9))
    before = target.stat()
    cli._write_text(str(target), text)
    after = target.stat()
    assert ((after.st_ino, after.st_mtime_ns, after.st_ctime_ns)
            == (before.st_ino, 10**9, before.st_ctime_ns))
    assert target.read_text() == text
    assert _no_temp_files(tmp_path)


@pytest.mark.parametrize("old", ["graph 3 3\n0 1\n0 2\n1 3\n", "Graph 3 3\n0 1\n0 2\n1 2\n"])
def test_a_file_of_the_same_size_with_other_bytes_is_replaced(tmp_path, small_chunks, old):
    # the size check alone would keep these; the first and the last chunk differ
    target = tmp_path / "out.txt"
    text = "graph 3 3\n0 1\n0 2\n1 2\n"
    target.write_text(old)
    inode = target.stat().st_ino
    cli._write_text(str(target), text)
    assert target.read_text() == text
    assert target.stat().st_ino != inode
    assert _no_temp_files(tmp_path)


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
def test_a_linked_file_with_the_same_bytes_is_replaced(tmp_path, link):
    # a write replaces the link itself, as it always has: the file linked to
    # keeps its inode and bytes, and the target is a new regular file
    text = "graph 2 1\n0 1\n"
    other, target = tmp_path / "other.txt", tmp_path / "out.txt"
    other.write_text(text)
    inode = other.stat().st_ino
    (os.symlink if link == "symlink" else os.link)(other, target)
    cli._write_text(str(target), text)
    assert not target.is_symlink()
    assert target.stat().st_ino != inode and target.stat().st_nlink == 1
    assert target.read_text() == text
    assert (other.stat().st_ino, other.stat().st_nlink, other.read_text()) == (inode, 1, text)
    assert _no_temp_files(tmp_path)


def test_a_fifo_target_is_replaced_without_blocking(tmp_path):
    # opening a FIFO with no writer to compare it would block: the write must
    # return, in a child process so that a hang fails the test, and replace it
    target = tmp_path / "out.graph"
    os.mkfifo(target)
    proc = subprocess.run([sys.executable, "-m", "dmagic", "graph", "--family", "complete",
                           "--n", "3", "-o", str(target)],
                          capture_output=True, text=True, env=source_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert stat.S_ISREG(target.lstat().st_mode)
    assert target.read_text() == graph_to_text(complete(3))
    assert _no_temp_files(tmp_path)


@pytest.mark.parametrize("kind", ["missing-dir", "directory"])
def test_a_failed_write_names_the_target_not_the_temp_file(tmp_path, capsys, monkeypatch, kind):
    # the error line names the file the user gave, and no temp file is left
    monkeypatch.chdir(tmp_path)
    if kind == "missing-dir":
        target, message = "missing/x.graph", "[Errno 2] No such file or directory"
    else:
        target, message = "x.graph", "[Errno 21] Is a directory"
        (tmp_path / target).mkdir()
    code, out, err = run(capsys, "construct", "--family", "kmokn", "--m", "2", "--n", "2",
                         "--graph-out", target)
    assert (code, out, err) == (2, "", f"error: {message}: '{target}'\n")
    assert _no_temp_files(tmp_path)


def test_graph_to_stdout(capsys):
    code, out, _ = run(capsys, "graph", "--family", "cycle", "--n", "4")
    assert code == 0
    assert out.startswith("graph 4 4\n")


def test_graph_missing_parameter(capsys):
    code, _, err = run(capsys, "graph", "--family", "multipartite")
    assert code == 2
    assert "--sizes" in err


@pytest.mark.parametrize("m, n", [("0", "3"), ("3", "0")])
def test_graph_kmokn_names_both_parameters(capsys, m, n):
    code, out, err = run(capsys, "graph", "--family", "kmokn", "--m", m, "--n", n)
    assert code == 2
    assert out == ""
    assert err == f"error: need m >= 1 and n >= 1, got m={m}, n={n}\n"


def test_construct_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "k43.cert"
    graph = tmp_path / "k43.graph"
    code, out, _ = run(capsys, "construct", "--family", "kmokn", "--m", "4", "--n", "3",
                       "--cert-out", str(cert), "--graph-out", str(graph))
    assert code == 0
    assert out.strip() == "magic mu=6"
    code, out, _ = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert code == 0
    assert out.strip() == "magic mu=6"


def test_construct_writes_the_same_bytes(tmp_path, capsys):
    # K5[4]'s graph and certificate files, as dmagic has always written them
    graph, cert = tmp_path / "k54.graph", tmp_path / "k54.cert"
    code, _, _ = run(capsys, "construct", "--family", "kmokn", "--m", "5", "--n", "4",
                     "--graph-out", str(graph), "--cert-out", str(cert))
    assert code == 0
    assert (hashlib.sha256(graph.read_bytes()).hexdigest()
            == "cd1929ed4728dfba9ffb2280cad78723a9c0bc97643b8636d3fdcba195c16444")
    assert (hashlib.sha256(cert.read_bytes()).hexdigest()
            == "dfa99fd7356d97edff87662ad9d3b47d9495914958e5a413673a71f2f0f89fc2")


def test_construct_default_output_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "construct", "--family", "kmokn", "--m", "2", "--n", "2")
    assert code == 0
    assert (tmp_path / "kmokn-2-2.graph").exists()
    assert (tmp_path / "kmokn-2-2.cert").exists()
    code, _, _ = run(capsys, "verify",
                     "--graph", str(tmp_path / "kmokn-2-2.graph"),
                     "--cert", str(tmp_path / "kmokn-2-2.cert"))
    assert code == 0


def test_construct_not_magic_cell(capsys):
    code, out, err = run(capsys, "construct", "--family", "kmokn", "--m", "6", "--n", "3")
    assert code == 1
    assert "theorem1" in err


def test_construct_odd_by_odd_cell(tmp_path, capsys):
    cert = tmp_path / "k33.cert"
    graph = tmp_path / "k33.graph"
    code, out, _ = run(capsys, "construct", "--family", "kmokn", "--m", "3", "--n", "3",
                       "--cert-out", str(cert), "--graph-out", str(graph))
    assert code == 0
    assert out.strip() == "magic mu=0"
    code, out, _ = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert code == 0
    assert out.strip() == "magic mu=0"


def test_construct_even_complete(capsys):
    code, _, err = run(capsys, "construct", "--family", "complete", "--n", "6")
    assert code == 1
    assert "not-magic" in err


@pytest.mark.parametrize("family", ["complete", "empty"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_construct_rejects_a_graph_without_vertices(tmp_path, capsys, monkeypatch, family, n):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "construct", "--family", family, f"--n={n}")
    assert code == 2
    assert out == ""
    assert "error:" in err and "not-magic" not in err
    assert not list(tmp_path.iterdir())


def test_verify_rejects_tampered_mu(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    graph = tmp_path / "c.graph"
    run(capsys, "construct", "--family", "kmokn", "--m", "2", "--n", "2",
        "--cert-out", str(cert), "--graph-out", str(graph))
    text = cert.read_text().replace("mu 2", "mu 3")
    cert.write_text(text)
    code, out, _ = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert code == 1
    assert "violation" in out


@pytest.mark.parametrize("claimed, out_line, exit_code", [
    ("18", "magic mu=6", 0),
    ("-6", "magic mu=6", 0),
    ("7", "violation claimed mu=7 but weights are 6", 1),
])
def test_verify_reads_the_claimed_mu_modulo_the_order(tmp_path, capsys, claimed, out_line,
                                                       exit_code):
    cert = tmp_path / "k3_4.cert"
    graph = tmp_path / "k3_4.graph"
    code, out, _ = run(capsys, "construct", "--family", "kmokn", "--m", "3", "--n", "4",
                       "--cert-out", str(cert), "--graph-out", str(graph))
    assert (code, out.strip()) == (0, "magic mu=6")
    text = cert.read_text()
    assert "\nmu 6\n" in text
    cert.write_text(text.replace("\nmu 6\n", f"\nmu {claimed}\n"))
    code, out, _ = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert (code, out.strip()) == (exit_code, out_line)


def test_verify_rejects_tampered_labels(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    graph = tmp_path / "c.graph"
    run(capsys, "construct", "--family", "kmokn", "--m", "2", "--n", "2",
        "--cert-out", str(cert), "--graph-out", str(graph))
    # swap the labels of vertices 0 and 2 across the blocks: weights diverge
    text = cert.read_text().replace("l 0 2", "l 0 1").replace("l 2 1", "l 2 2")
    cert.write_text(text)
    code, out, _ = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert code == 1
    assert "violation vertex=3" in out


def test_verify_malformed_certificate(tmp_path, capsys):
    graph = tmp_path / "c.graph"
    cert = tmp_path / "c.cert"
    run(capsys, "graph", "--family", "cycle", "--n", "4", "-o", str(graph))
    cert.write_text("certificate 4\nmu 0\nl 0 0\n")
    code, _, err = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert code == 2
    assert "error:" in err


def test_verify_malformed_graph_without_vertices(tmp_path, capsys):
    # edges on N = 0 vertices: a format error of the edge line, not a division by N
    graph = tmp_path / "zero.graph"
    cert = tmp_path / "one.cert"
    graph.write_text("graph 0 3\ne 0 1\ne 0 2\ne 1 2\n")
    cert.write_text("certificate 1\nmu 0\nl 0 0\n")
    code, out, err = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: edge (0, 1) must satisfy 0 <= u < v < 0\n"


def test_verify_names_a_few_unoriented_edges(tmp_path, capsys):
    # a certificate without arcs on K30[30] leaves all 391,500 edges unoriented
    graph = tmp_path / "k.graph"
    cert = tmp_path / "k.cert"
    run(capsys, "graph", "--family", "kmokn", "--m", "30", "--n", "30", "-o", str(graph))
    cert.write_text("certificate 900\nmu 0\n" + "".join(f"l {v} {v}\n" for v in range(900)))
    code, out, err = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert code == 2
    assert out == ""
    assert err.startswith("error: 391500 edges left unoriented: (0, 30), ")
    assert len(err) < 200


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--graph", str(tmp_path / "nope"),
                       "--cert", str(tmp_path / "nope2"))
    assert code == 2
    assert "error:" in err


def test_decide_exit_codes(capsys):
    assert run(capsys, "decide", "--family", "kmokn", "--m", "4", "--n", "3")[0] == 0
    assert run(capsys, "decide", "--family", "kmokn", "--m", "6", "--n", "3")[0] == 1
    assert run(capsys, "decide", "--family", "kmokn", "--m", "3", "--n", "3")[0] == 0
    assert run(capsys, "decide", "--family", "kmokn", "--m", "8", "--n", "1")[0] == 1


def test_decide_output_format(capsys):
    code, out, _ = run(capsys, "decide", "--family", "kmokn", "--m", "4", "--n", "3")
    assert out.strip() == "magic case1 mu=6"
    code, out, _ = run(capsys, "decide", "--family", "kmokn", "--m", "3", "--n", "2")
    assert out.strip() == "magic case2 mu=4"
    code, out, _ = run(capsys, "decide", "--family", "kmokn", "--m", "6", "--n", "3")
    assert out.strip() == "not-magic theorem1"


def test_search_witness_and_certificate(tmp_path, capsys):
    graph = tmp_path / "k5.graph"
    cert = tmp_path / "k5.cert"
    run(capsys, "graph", "--family", "complete", "--n", "5", "-o", str(graph))
    code, out, _ = run(capsys, "search", "--graph", str(graph), "-o", str(cert))
    assert code == 0
    assert out.startswith("witness mu=")
    code, out, _ = run(capsys, "verify", "--graph", str(graph), "--cert", str(cert))
    assert code == 0


def test_search_witness_prints_certificate_without_output_file(tmp_path, capsys):
    graph = tmp_path / "k5.graph"
    run(capsys, "graph", "--family", "complete", "--n", "5", "-o", str(graph))
    code, out, _ = run(capsys, "search", "--graph", str(graph))
    assert code == 0
    summary, _, rest = out.partition("\n")
    assert summary.startswith("witness mu=")
    assert parse_certificate(rest).order == 5


def test_search_exhausted(tmp_path, capsys):
    graph = tmp_path / "p4.graph"
    run(capsys, "graph", "--family", "prism", "--n", "4", "-o", str(graph))
    code, out, _ = run(capsys, "search", "--graph", str(graph))
    assert code == 1
    assert out.startswith("exhausted-no-solution")


def test_search_inconclusive_budget(tmp_path, capsys):
    graph = tmp_path / "k6.graph"
    run(capsys, "graph", "--family", "complete", "--n", "6", "-o", str(graph))
    code, out, _ = run(capsys, "search", "--graph", str(graph), "--no-parity-prune",
                       "--nodes", "100")
    assert code == 2
    assert out.startswith("inconclusive")


def test_search_deep_graph_is_inconclusive(tmp_path, capsys):
    graph = tmp_path / "k11_5.graph"
    run(capsys, "graph", "--family", "kmokn", "--m", "11", "--n", "5", "-o", str(graph))
    code, out, _ = run(capsys, "search", "--graph", str(graph), "--nodes", "20000")
    assert code == 2
    assert out.startswith("inconclusive nodes=20001 ")


def test_search_parallel_seconds_bound_the_whole_run(tmp_path, capsys):
    graph = tmp_path / "k5_3.graph"
    run(capsys, "graph", "--family", "kmokn", "--m", "5", "--n", "3", "-o", str(graph))
    start = perf_counter()
    code, out, _ = run(capsys, "search", "--graph", str(graph), "--threads", "2",
                       "--seconds", "0.2")
    assert perf_counter() - start <= 1.2
    assert code in (0, 2), out


def test_search_parallel_job_error_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("injected defect")

    graph = tmp_path / "k6.graph"
    run(capsys, "graph", "--family", "complete", "--n", "6", "-o", str(graph))
    monkeypatch.setattr("dmagic.search._search", broken)
    code, out, err = run(capsys, "search", "--graph", str(graph), "--threads", "2",
                         "--no-parity-prune")
    assert code == 3
    assert out == ""
    assert "internal error: RuntimeError: injected defect" in err


def test_search_rejects_a_nan_time_budget(tmp_path, capsys):
    graph = tmp_path / "k4.graph"
    run(capsys, "graph", "--family", "complete", "--n", "4", "-o", str(graph))
    code, out, err = run(capsys, "search", "--graph", str(graph), "--seconds", "nan")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_search_parallel_accepts_an_infinite_time_budget(tmp_path, capsys):
    graph = tmp_path / "k5.graph"
    run(capsys, "graph", "--family", "complete", "--n", "5", "-o", str(graph))
    code, out, _ = run(capsys, "search", "--graph", str(graph), "--threads", "2",
                       "--seconds", "inf")
    assert code == 0
    assert out.startswith("witness mu=")


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(m, n):
        raise RuntimeError("injected defect")

    monkeypatch.setattr("dmagic.cli.decide_kmokn", broken)
    code, out, err = run(capsys, "decide", "--family", "kmokn", "--m", "4", "--n", "3")
    assert code == 3
    assert out == ""
    assert "internal error: RuntimeError: injected defect" in err


def test_later_calls_reuse_the_parser_and_keep_nothing_between_calls(tmp_path, capsys,
                                                                     monkeypatch):
    k5, cert, k6 = tmp_path / "k5.graph", tmp_path / "k5.cert", tmp_path / "k6.graph"
    code, out, _ = run(capsys, "construct", "--family", "complete", "--n", "5",
                       "--graph-out", str(k5), "--cert-out", str(cert))
    assert (code, out) == (0, "magic mu=4\n")
    k6.write_text(graph_to_text(complete(6)))
    configs, decide_existence = [], cli.decide_existence

    def recording(graph, config):
        configs.append(config)
        return decide_existence(graph, config)

    monkeypatch.setattr("dmagic.cli.decide_existence", recording)

    def calls():
        results = [run(capsys, "verify", "--graph", str(k5), "--cert", str(cert)),
                   run(capsys, "obstruct", "--graph", str(k6))]
        for options in (["--threads", "2", "--no-parity-prune", "--seed", "3"], []):
            code, out, err = run(capsys, "search", "--graph", str(k5), *options)
            results.append((code, re.sub(r" time_ms=\S+", "", out), err))
        for argv in (["--version"], []):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            results.append((exit_info.value.code, *capsys.readouterr()))
        return results

    before = calls()
    assert [r[0] for r in before] == [0, 1, 0, 0, 0, 2]
    assert before[:2] == [(0, "magic mu=4\n", ""), (1, "not-magic theorem1 r=5 order=6\n", "")]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a later call built a new parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert calls() == before
    optioned = SearchConfig(workers=2, parity_prune=False, seed=3)
    assert configs == [optioned, SearchConfig(), optioned, SearchConfig()]


def test_obstruct(tmp_path, capsys):
    graph = tmp_path / "p4.graph"
    run(capsys, "graph", "--family", "prism", "--n", "4", "-o", str(graph))
    code, out, _ = run(capsys, "obstruct", "--graph", str(graph))
    assert code == 1
    assert out.strip() == "not-magic parity-infeasible"

    graph = tmp_path / "p3.graph"
    run(capsys, "graph", "--family", "prism", "--n", "3", "-o", str(graph))
    code, out, _ = run(capsys, "obstruct", "--graph", str(graph))
    assert code == 1
    assert out.strip() == "not-magic theorem1 r=3 order=6"

    graph = tmp_path / "c4.graph"
    run(capsys, "graph", "--family", "cycle", "--n", "4", "-o", str(graph))
    code, out, _ = run(capsys, "obstruct", "--graph", str(graph))
    assert code == 2
    assert out.strip() == "inconclusive"


@pytest.mark.parametrize("command", ["search", "obstruct"])
def test_a_graph_without_vertices_is_rejected(tmp_path, capsys, command):
    graph = tmp_path / "zero.graph"
    graph.write_text("graph 0 0\n")
    code, out, err = run(capsys, command, "--graph", str(graph))
    assert (code, out, err) == (2, "", f"error: {command} needs at least one vertex\n")


def test_partition(capsys):
    code, out, _ = run(capsys, "partition", "--N", "10", "--sizes", "2,3,5")
    assert code == 0
    lines = out.strip().splitlines()
    assert [len(line.split()) for line in lines] == [2, 3, 5]
    values = [int(x) for line in lines for x in line.split()]
    assert sorted(values) == [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]
    for line in lines:
        assert sum(int(x) for x in line.split()) == 0
    # the README example
    code, out, _ = run(capsys, "partition", "--N", "12", "--sizes", "3,3,3,3")
    assert code == 0
    assert out.splitlines() == ["-6 1 5", "-3 -1 4", "-5 2 3", "-4 -2 6"]


def test_partition_all_triples_large(capsys):
    code, out, _ = run(capsys, "partition", "--N", "2400", "--sizes", ",".join(["3"] * 800))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 800
    for line in lines:
        values = [int(x) for x in line.split()]
        assert len(values) == 3 and sum(values) == 0
    values = sorted(int(x) for line in lines for x in line.split())
    assert values == list(range(-1200, 0)) + list(range(1, 1201))


def test_partition_rejects_impossible_sizes(capsys):
    code, _, err = run(capsys, "partition", "--N", "7", "--sizes", "3,4")
    assert code == 2
    assert "error:" in err


def test_partition_rejects_malformed_sizes():
    with pytest.raises(SystemExit) as exit_info:
        main(["partition", "--N", "6", "--sizes", "3,x"])
    assert exit_info.value.code == 2


def test_table(tmp_path, capsys):
    certs = tmp_path / "certs"
    code, out, _ = run(capsys, "table", "--max-m", "4", "--max-n", "3",
                       "--cert-dir", str(certs))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "m", "n", "order", "status", "mu", "method", "time_ms"]
    # one row per cell, in (m, n) order, though the cells are decided largest first
    assert [(r[1], r[2]) for r in rows[1:]] == [(str(m), str(n)) for m in range(1, 5)
                                                for n in range(1, 4)]
    by_cell = {(r[1], r[2]): r for r in rows[1:]}
    assert by_cell[("2", "3")][4:7] == ["not-magic", "", "theorem1"]
    assert by_cell[("4", "1")][4:7] == ["not-magic", "", "parity"]
    assert by_cell[("3", "3")][4:7] == ["magic", "0", "case2"]
    # every magic cell wrote a graph plus certificate pair that re-verifies
    magic_cells = [(r[1], r[2]) for r in rows[1:] if r[4] == "magic"]
    assert magic_cells
    for m, n in magic_cells:
        stem = certs / f"kmokn-{m}-{n}"
        graph_file = stem.with_suffix(".graph")
        cert_file = stem.with_suffix(".cert")
        assert graph_file.exists() and cert_file.exists()
        code, out, _ = run(capsys, "verify", "--graph", str(graph_file),
                           "--cert", str(cert_file))
        assert code == 0


@pytest.mark.parametrize("m, n", [("-2", "3"), ("3", "0")])
def test_table_rejects_a_grid_side_below_1(tmp_path, capsys, m, n):
    out_file = tmp_path / "table.csv"
    code, out, err = run(capsys, "table", "--max-m", m, "--max-n", n, "-o", str(out_file))
    name, value = ("max-m", m) if int(m) < 1 else ("max-n", n)
    assert (code, out, err) == (2, "", f"error: --{name} must be at least 1, got {value}\n")
    assert not out_file.exists()


def _table_files(capsys, cores, monkeypatch, *argv):
    """(exit code, stderr) of table with the cores forced, and the helpers it started."""
    started, start = [], fanout.start

    def recording(helpers, *args):
        start(helpers, *args)
        started.extend(helper for helper, _ in helpers)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_cores", lambda: cores)
        patch.setattr(fanout, "start", recording)
        code, _, err = run(capsys, "table", *argv)
    # every helper was joined before table returned
    assert all(helper.exitcode is not None for helper in started)
    assert multiprocessing.active_children() == []
    return code, err, started


def _a_helper_takes_the_first_cell(monkeypatch):
    """Make this process wait to take a cell until a helper has taken the
    first, the largest."""
    here, take = os.getpid(), fanout.take

    def waiting(counter):
        deadline = perf_counter() + 60
        while os.getpid() == here and counter.value == 0 and perf_counter() < deadline:
            sleep(0.001)
        return take(counter)

    monkeypatch.setattr(fanout, "take", waiting)


def _contents(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_table_bytes_do_not_depend_on_the_process_count(tmp_path, capsys, monkeypatch, method):
    # the 12x12 grid starts helpers, one of which takes the largest cell,
    # K12[12]; 4 processes on fewer cores share the next cell's index too
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        written = {}
        for cores in (1, 2, 4):
            certs, out_file = tmp_path / f"certs{cores}", tmp_path / f"table{cores}.csv"
            if cores == 2:  # and on, for 4
                _a_helper_takes_the_first_cell(monkeypatch)
            code, _, started = _table_files(capsys, cores, monkeypatch, "--max-m", "12",
                                            "--max-n", "12", "--cert-dir", str(certs),
                                            "-o", str(out_file))
            assert (code, len(started)) == (0, cores - 1)
            rows = [row[:7] for row in csv.reader(io.StringIO(out_file.read_text()))]
            written[cores] = rows, _contents(certs)
    finally:
        multiprocessing.set_start_method(before, force=True)
    rows, files = written[1]
    assert len(rows) == 145 and len(files) == 2 * sum(row[4] == "magic" for row in rows)
    assert written[2] == written[4] == written[1]


def test_small_tables_start_no_helper(tmp_path, capsys, monkeypatch):
    for side in ("3", "8"):
        certs = tmp_path / side
        code, _, started = _table_files(capsys, 4, monkeypatch, "--max-m", side, "--max-n", side,
                                        "--cert-dir", str(certs))
        assert (code, started) == (0, [])
    code, _, started = _table_files(capsys, 4, monkeypatch, "--max-m", "4", "--max-n", "3")
    assert (code, started) == (0, [])


def test_a_table_rerun_replaces_no_file(tmp_path, capsys, monkeypatch):
    # a re-run into the same cert dir writes the same bytes, so it leaves
    # every file as it is, also one a helper would write
    certs, out_file = tmp_path / "certs", tmp_path / "table.csv"
    argv = ["--max-m", "12", "--max-n", "12", "--cert-dir", str(certs), "-o", str(out_file)]
    code, _, _ = _table_files(capsys, 1, monkeypatch, *argv)
    assert code == 0
    for file in certs.iterdir():
        os.utime(file, ns=(10**9, 10**9))
    before = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in certs.iterdir()}
    _a_helper_takes_the_first_cell(monkeypatch)
    code, _, started = _table_files(capsys, 2, monkeypatch, *argv)
    assert (code, len(started)) == (0, 1)
    after = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in certs.iterdir()}
    assert after == before and len(before) == 246
    assert _no_temp_files(tmp_path)


def test_table_os_error_in_a_helper_is_the_serial_error(tmp_path, capsys, monkeypatch):
    # the helper takes K12[12] and cannot replace the directory in its
    # certificate's place
    certs, out_file = tmp_path / "certs", tmp_path / "table.csv"
    (certs / "kmokn-12-12.cert").mkdir(parents=True)
    argv = ["--max-m", "12", "--max-n", "12", "--cert-dir", str(certs), "-o", str(out_file)]
    errors = []
    for cores in (1, 2):
        if cores == 2:
            _a_helper_takes_the_first_cell(monkeypatch)
        code, err, started = _table_files(capsys, cores, monkeypatch, *argv)
        assert (code, len(started)) == (2, cores - 1)
        errors.append(re.sub(r"\.dmagic\.[0-9a-f]{16}", ".dmagic.*", err))
        assert not out_file.exists()
        assert not list(tmp_path.rglob(".dmagic.*"))
    assert errors[0].startswith("error: [Errno 21] Is a directory: ")
    assert errors[1] == errors[0]


def test_table_helper_that_dies_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # the helper dies in its first cell, K12[12], so the table may not be written
    certs, out_file = tmp_path / "certs", tmp_path / "table.csv"
    here, decide = os.getpid(), cli.decide_kmokn

    def dies_in_a_helper(m, n):
        if os.getpid() != here:
            os._exit(1)
        return decide(m, n)

    monkeypatch.setattr(cli, "decide_kmokn", dies_in_a_helper)
    _a_helper_takes_the_first_cell(monkeypatch)
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)  # the helper inherits the patch
    try:
        code, err, started = _table_files(capsys, 2, monkeypatch, "--max-m", "12", "--max-n", "12",
                                          "--cert-dir", str(certs), "-o", str(out_file))
    finally:
        multiprocessing.set_start_method(before, force=True)
    assert (code, len(started)) == (3, 1)
    assert "internal error: RuntimeError: a table helper process died" in err
    assert not out_file.exists()


def test_importing_the_cli_imports_no_multiprocessing():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dmagic.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=source_env())
    assert proc.stdout.strip() == "False", proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dmagic", "decide", "--family", "kmokn", "--m", "4", "--n", "3"],
        capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "magic case1 mu=6"


def test_console_script_entry_point(tmp_path):
    # The `dmagic` script exists only after `pip install`, so the declared
    # entry point is run through the launcher pip would write for it; an
    # installed script on PATH is checked as well.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"dmagic": "dmagic.cli:main"}
    module, function = project["scripts"]["dmagic"].split(":")
    launcher = tmp_path / "dmagic"
    launcher.write_text(
        f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n")
    runs = [([sys.executable, str(launcher)], source_env())]
    installed = shutil.which("dmagic")
    if installed:
        runs.append(([installed], None))
    for command, run_env in runs:
        proc = subprocess.run(command + ["--version"], capture_output=True, text=True,
                              env=run_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "dmagic 0.1.0"
        assert proc.stdout.strip() == f"dmagic {project['version']}"


def test_certificate_parse_of_cli_output(tmp_path, capsys):
    cert = tmp_path / "k7.cert"
    graph = tmp_path / "k7.graph"
    run(capsys, "construct", "--family", "complete", "--n", "7",
        "--cert-out", str(cert), "--graph-out", str(graph))
    parsed = parse_certificate(cert.read_text())
    assert parsed.order == 7
    assert parsed.mu == 2

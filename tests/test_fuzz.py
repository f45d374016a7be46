"""Seeded fuzz of the text readers behind the command line.

Valid inputs (a coloring dump, its graph fixture, a certificate and a
`--config` file) are truncated and mutated byte by byte.  A mutant may be
accepted, or fail its verification (exit 1); otherwise it must be rejected
with exit 2 and an error message, never with a traceback.
"""

import os

import numpy as np
import pytest

from treecolor.cli import main

CERT = os.path.join(os.path.dirname(__file__), "..", "perfbench", "certs", "cert43.json")
CONFIG = (b"r = 4\np = 3\nepsilon = 0.2\nn = 40\nsteps = 6\nseed = 1\n"
          b"modified = true\nweight = 2,2=0.5\n")
MUTANTS = 120


def mutants(data: bytes, seed: int, count: int = MUTANTS, head: int = 0):
    """Seeded truncations and byte edits of `data`.  With `head`, half of
    the edits fall in the first `head` bytes, where the header fields sit."""
    rng = np.random.default_rng(seed)
    alphabet = b"0123456789-+.e ,=\n\t#x\x00\xff\xc3"
    for k in range(count):
        out = bytearray(data)
        kind = k % 4
        span = head if head and k % 2 else len(out)
        i = int(rng.integers(max(1, min(span, len(out)))))
        if kind == 0:
            del out[i:]  # truncation
        elif kind == 1:
            out[i] = int(rng.integers(256))  # random byte
        elif kind == 2:
            out[i] = alphabet[int(rng.integers(len(alphabet)))]
        else:
            out.insert(i, alphabet[int(rng.integers(len(alphabet)))])
        yield bytes(out)


def run(argv: list[str], capsys) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects unknown flags and values
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), f"exit {code} for {argv}: {err}"
    if code == 2:
        assert "error" in err
    return code


@pytest.fixture(scope="module")
def run_dump(tmp_path_factory):
    dump = tmp_path_factory.mktemp("fuzz") / "run.dump"
    assert main(["simulate", "--r", "4", "--p", "3", "--epsilon", "0.1",
                 "--n", "60", "--steps", "99", "--seed", "3",
                 "--dump", str(dump)]) == 0
    return dump


def test_fuzz_coloring_dump(run_dump, tmp_path, capsys):
    graph = str(run_dump) + ".graph"
    path = tmp_path / "mutant.dump"
    codes = []
    for data in mutants(run_dump.read_bytes(), seed=1, head=40):
        path.write_bytes(data)
        codes.append(run(["verify", "--dump", str(path), "--graph", graph], capsys))
    assert codes.count(2) > MUTANTS // 2


def test_fuzz_graph_fixture(run_dump, tmp_path, capsys):
    path = tmp_path / "mutant.graph"
    codes = []
    for data in mutants((run_dump.parent / "run.dump.graph").read_bytes(), seed=2, head=40):
        path.write_bytes(data)
        codes.append(run(["verify", "--dump", str(run_dump), "--graph", str(path)], capsys))
    assert codes.count(2) > MUTANTS // 2


def test_fuzz_certificate(tmp_path, capsys):
    path = tmp_path / "mutant.json"
    with open(CERT, "rb") as fh:
        data = fh.read()
    codes = []
    for text in mutants(data, seed=3, head=1200):
        path.write_bytes(text)
        codes.append(run(["verify", "--cert", str(path)], capsys))
    assert codes.count(2) > MUTANTS // 3


def test_fuzz_config_file(tmp_path, capsys):
    assert run(["simulate", "--config", str(tmp_path / "absent.cfg")], capsys) == 2
    path = tmp_path / "mutant.cfg"
    path.write_bytes(CONFIG)
    assert run(["simulate", "--config", str(path)], capsys) == 0
    codes = []
    for data in mutants(CONFIG, seed=4):
        path.write_bytes(data)
        codes.append(run(["simulate", "--config", str(path)], capsys))
    assert codes.count(2) > MUTANTS // 4


def test_huge_header_n_is_named(run_dump, tmp_path, capsys):
    huge = "99999999999999"
    dump = tmp_path / "huge.dump"
    dump.write_text(f"{huge} 4 3\n0 1\n", encoding="utf-8")
    assert main(["verify", "--dump", str(dump)]) == 2
    assert f"n={huge}" in capsys.readouterr().err
    graph = tmp_path / "huge.graph"
    graph.write_text(f"{huge} 4\n0 1\n", encoding="utf-8")
    assert main(["verify", "--dump", str(run_dump), "--graph", str(graph)]) == 2
    assert f"n={huge}" in capsys.readouterr().err


def test_dump_color_beyond_the_color_range_is_rejected(tmp_path, capsys):
    # colors are stored as int16, so a palette past its range used to
    # overflow with a traceback
    dump = tmp_path / "wide.dump"
    dump.write_text("3 4 99999\n0 40000\n1 0\n2 1\n", encoding="utf-8")
    (tmp_path / "wide.dump.graph").write_text("3 4\n0 1\n1 2\n", encoding="utf-8")
    assert main(["verify", "--dump", str(dump)]) == 2
    assert "bad header" in capsys.readouterr().err

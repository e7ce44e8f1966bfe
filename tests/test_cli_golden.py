"""Byte-identical stdout on a fixed command set.

The set is the five README examples plus the five commands the benchmark
times (`bench/run.py` CLI_COMMANDS); the `eval` example appears in both, so
nine command lines remain. Each pin is the exit code and the sha256 of the
exact stdout bytes; `thm3 --roots` also pins the bytes of its root table.
A refactor that changes any printed digit fails here.
"""

import hashlib

import pytest

from lpfacility.cli import main

GOLDEN = [
    (
        ["eval", "--spec", "lrm", "--profile", "0,1", "--p", "2"],
        0,
        "425005a9c75dbea4196e2ef582ab34f45a1c3d34cfb791067d948348d0440bad",
    ),
    (
        ["spcheck", "--spec", "threepoint:0.2", "--n", "2", "--trials", "500"],
        3,
        "b788fd368898e0003d6a98ff516afdee50447d631cbc231a124f57e8a545a558",
    ),
    (
        ["ratio", "--spec", "median", "--p", "2", "--n", "10"],
        0,
        "3f9cf4cc9525d664631ce9f5d62bf5652504257ed920277862ef29a413813ecc",
    ),
    (
        ["thm3", "--p", "3", "--k", "2,10,100"],
        0,
        "fcbfcf97f84848876e6dad87c4942b5754d96b51153be81622d5baa26bc58274",
    ),
    (
        ["frontier", "--q-grid", "0:0.5:51", "--p", "2"],
        0,
        "dae5a8f6bf22688c5dbdfe8d0bd18c9a9169013b1f83ad1229d373020d276f3e",
    ),
    (
        ["spcheck", "--spec", "median", "--n", "4", "--p", "3", "--trials", "20"],
        0,
        "6dd72c3166d37e97367d83495cd64a8d5c6172e6693e6833fb836f785b57acac",
    ),
    (
        ["ratio", "--spec", "median", "--p", "3", "--n", "6", "--trials", "20", "--hill-iters", "20"],
        0,
        "05d7d54f1446e16a05ec36eefb525cacbdcc94de172863cb2056728995fb3d6d",
    ),
    (
        ["thm3", "--p", "3", "--k", "10,100,1000"],
        0,
        "e65233582611c8d45e87d2319f90c70eabc63441f3a19180d2721852cb3cbd66",
    ),
    (
        ["frontier", "--q-grid", "0:0.5:11", "--p", "2"],
        0,
        "7ab690c44cde5e23cac5b31edf5f639387b54dda3ba1dbf070a21be6a149f812",
    ),
]

ROOTS_SHA256 = "04265806eab0ac892f59e87001aaa3b0705339c39dd9053190826c1c5ef05487"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_is_byte_identical(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert sha256(out) == digest, out


def test_root_table_is_byte_identical(capsys, tmp_path):
    roots = tmp_path / "roots.csv"
    assert main(["thm3", "--p", "3", "--k", "2,10,100", "--roots", str(roots)]) == 0
    assert sha256(capsys.readouterr().out) == GOLDEN[3][2]
    assert sha256(roots.read_text(encoding="utf-8")) == ROOTS_SHA256

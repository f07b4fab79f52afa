import json
import subprocess
import sys
from pathlib import Path

import pytest

from comring import cli
from comring.cli import main, run
from comring.core import Com, com_to_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def gen3_file(tmp_path, gen3):
    path = tmp_path / "gen3_com.json"
    path.write_text(com_to_json(gen3))
    return str(path)


@pytest.fixture()
def ex4_file(tmp_path, ex4):
    path = tmp_path / "ex4_com.json"
    path.write_text(com_to_json(ex4))
    return str(path)


def write_com(tmp_path, n, words, name="input.json"):
    path = tmp_path / name
    path.write_text(com_to_json(Com.from_words(n, words)))
    return str(path)


def test_check_accepts(gen3_file):
    status, out = run(["check", gen3_file])
    assert status == 0
    assert json.loads(out) == {"ok": True, "n": 3, "covectors": 13}


def test_check_rejects_with_witness(tmp_path):
    path = write_com(tmp_path, 1, ["+", "-"])
    status, out = run(["check", path])
    assert status == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["witness"] == {"kind": "se-violation", "x": "-", "y": "+", "i": 0}


def test_check_face_symmetry_witness(tmp_path):
    path = write_com(tmp_path, 2, ["00", "++"])
    status, out = run(["check", path])
    assert status == 1
    w = json.loads(out)["witness"]
    assert w["kind"] == "fs-violation"
    assert (w["x"], w["y"]) == ("00", "++")
    assert "i" not in w


def test_topes(gen3_file):
    status, out = run(["topes", gen3_file])
    assert status == 0
    assert json.loads(out)["topes"] == ["---", "-+-", "-++", "+--", "+-+", "+++"]


def test_circuits_key(ex4_file):
    status, out = run(["circuits", ex4_file])
    assert status == 0
    data = json.loads(out)
    assert data["circuits"] == ["-+-0", "-+0-", "00+-", "+-+0"]
    assert sorted(map(tuple, data["minimal_deficient_supports"])) == [
        (0, 1, 2), (0, 1, 3), (2, 3)
    ]


def test_nbc_with_order(gen3_file):
    status, out = run(["nbc", gen3_file, "--order", "2,0,1"])
    assert status == 0
    data = json.loads(out)
    assert data["sets"] == [[], [0], [1], [2], [0, 2], [1, 2]]
    assert data["counts"] == [1, 3, 2]


def usage_error(argv):
    """The exit status with which argparse rejects argv."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_nbc_rejects_bad_order(gen3_file):
    assert usage_error(["nbc", gen3_file, "--order", "0,0,1"]) == 2


def test_minors(gen3_file):
    status, out = run(["minors", gen3_file, "--contract", "0"])
    assert status == 0
    data = json.loads(out)
    assert data["covectors"] == ["--", "00", "++"]
    assert data["label_map"] == {"0": 1, "1": 2}

    assert usage_error(["minors", gen3_file]) == 2
    assert usage_error(["minors", gen3_file, "--delete", "0", "--contract", "1"]) == 2


def test_realize_round_trip():
    status, out = run(["realize", str(FIXTURES / "gen3.json")])
    assert status == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert len(data["covectors"]) == 13


def test_hilbert(gen3_file):
    status, out = run(["hilbert", gen3_file])
    assert status == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 3, 2]
    assert "Betti" in data["interpretation"]


def test_presentation_text(gen3_file):
    status, out = run(["presentation", gen3_file, "--format", "text"])
    assert status == 0
    assert out.splitlines()[0] == "mode: rees"
    assert "pair[--+]: e0+*e1+ - e0+*e2+ - e1+*e2+ + e2+*u = 0" in out.splitlines()


def test_presentation_json(gen3_file):
    status, out = run(["presentation", gen3_file, "--mode", "gr", "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert data["mode"] == "gr"
    assert data["variables"] == ["e0+", "e1+", "e2+"]
    diag = data["relations"][0]
    assert diag["tag"] == "diag"
    assert diag["terms"] == [[1, [2, 0, 0]]]
    assert data["metadata"]["generator_cohomological_degree"] == 2


def test_presentation_script(gen3_file):
    status, out = run(["presentation", gen3_file, "--format", "script"])
    assert status == 0
    assert "PolynomialRing" in out and "quotient" in out
    assert "e0p" in out


def test_verify(gen3_file, tmp_path):
    status, out = run(["verify", gen3_file])
    assert status == 0
    report = json.loads(out)
    assert report["ok"] and report["is_com"]
    assert report["nbc_det"] in (1, -1)

    bad = write_com(tmp_path, 1, ["+", "-"], "bad.json")
    status, out = run(["verify", bad])
    assert status == 1
    assert json.loads(out)["is_com"] is False


def test_corpus_smoke():
    status, out = run(["corpus", "--count", "3", "--format", "json"])
    assert status == 0
    data = json.loads(out)
    assert data["instances"] == 3 and data["ok"]
    assert [r["seed"] for r in data["results"]] == [0, 1, 2]


def test_corpus_parallel_matches_serial():
    _, serial = run(["corpus", "--count", "4", "--jobs", "1", "--format", "json"])
    _, parallel = run(["corpus", "--count", "4", "--jobs", "2", "--format", "json"])
    assert json.loads(serial) == json.loads(parallel)


@pytest.mark.parametrize("flag", ["--count", "--jobs"])
@pytest.mark.parametrize("value", ["-3", "0", "x"])
def test_corpus_rejects_counts_below_one(flag, value, capsys):
    assert usage_error(["corpus", flag, value]) == 2
    assert "instances" not in capsys.readouterr().out


# The UTF-16 byte order mark: the byte 0xff never occurs in UTF-8.
NOT_UTF8 = b"\xff\xfe{}"

COM_COMMANDS = [
    ["check"],
    ["topes"],
    ["circuits"],
    ["nbc"],
    ["minors", "--delete", "0"],
    ["hilbert"],
    ["presentation"],
    ["verify"],
]


@pytest.mark.parametrize("argv", COM_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "name, text",
    [
        ("input.json", None),
        ("input.json", "{]"),
        ("absent/input.json", None),
        ("input.json", NOT_UTF8),
    ],
    ids=["missing", "malformed", "missing_dir", "not_utf8"],
)
def test_unreadable_covector_set_exits_2(tmp_path, argv, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    status, out = run([argv[0], str(path), *argv[1:]])
    assert status == 2
    assert out.startswith("error: ")


def test_realize_rejects_a_covector_set(gen3_file):
    status, out = run(["realize", gen3_file])
    assert status == 2
    assert out.startswith("error: ")


def test_realize_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "arrangement.json"
    path.write_bytes(NOT_UTF8)
    status, out = run(["realize", str(path)])
    assert status == 2
    assert out.startswith("error: ")


def test_realize_has_no_format_option():
    assert usage_error(["realize", str(FIXTURES / "gen3.json"), "--format", "text"]) == 2


@pytest.mark.parametrize("fault", [ValueError("bad state"), ZeroDivisionError("division")])
def test_internal_fault_exits_3(gen3_file, monkeypatch, capsys, fault):
    # A fault inside the library is not bad input, whatever its type.
    def broken(L):
        raise fault

    monkeypatch.setattr(cli, "full_verify", broken)
    status, out = run(["verify", gen3_file])
    assert status == 3
    assert out == f"internal error in verify: {type(fault).__name__}: {fault}"
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["minors", "--delete", "99"],
        ["minors", "--contract", "3"],
        ["minors", "--delete", "-1"],
        ["nbc", "--order", "1,0"],
        ["hilbert", "--order", "3,2,1,0"],
    ],
)
def test_input_outside_the_ground_set_exits_2(gen3_file, argv):
    status, out = run([argv[0], gen3_file, *argv[1:]])
    assert status == 2
    assert out.startswith("error: ") and "ground set" in out


def test_main_exit_codes(gen3_file, capsys):
    assert main(["check", gen3_file]) == 0
    assert main(["topes", gen3_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert '"ok": true' in out and "topes:" in out


def test_main_rejects_bad_order(gen3_file, capsys):
    assert usage_error(["nbc", gen3_file, "--order", "2,x,1"]) == 2
    assert "bad order '2,x,1'" in capsys.readouterr().err


def test_subprocess_entry_point(gen3_file):
    proc = subprocess.run(
        [sys.executable, "-m", "comring", "circuits", gen3_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["circuits"] == ["--+", "++-"]

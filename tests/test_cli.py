"""End-to-end checks of the command line interface.

Every invocation goes through main() in-process so that exit codes,
stdout, and stderr are all observable.  Golden payloads re-verify a few
library facts through the CLI plumbing; the rest checks the report
envelope, artifact round trips, format switches, and error discipline.
"""

import argparse
import copy
import csv
import hashlib
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcensus import (affine_geometry, chambers, cli, discriminantal,
                       exact_linalg, gallery, normal_system)
from arrcensus.chambers import catalog_to_dict, enumerate_chambers
from arrcensus.cli import main
from arrcensus.discriminantal import build
from arrcensus.errors import BadRational
from arrcensus.normal_system import ns_to_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ns_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("systems")
    paths = {}
    for name in ("three_lines", "four_lines", "five_lines"):
        p = root / (name + ".json")
        p.write_text(json.dumps(ns_to_dict(getattr(gallery, name)())))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.startswith("{") else None
    err = json.loads(captured.err) if captured.err.startswith("{") else None
    return code, out, err, captured


def test_envelope_shape(capsys, ns_files):
    code, rep, _, _ = run(capsys, "count", "--ns", ns_files["four_lines"])
    assert code == 0
    assert set(rep) == {"command", "version", "seed", "inputs",
                        "timings_ms", "payload"}
    assert rep["command"] == "count"
    assert "total" in rep["timings_ms"]
    assert rep["inputs"]["ns"]  # digest of the input file


def test_count_golden(capsys, ns_files):
    _, rep, _, _ = run(capsys, "count", "--ns", ns_files["four_lines"])
    assert rep["payload"] == {"coefficients": [1, -4, 3, 0, 0],
                              "cones": 8, "classes": 4}


def test_charpoly_methods_agree(capsys, ns_files):
    # whitney is the one engine: the default, and the only --method
    _, dflt, _, _ = run(capsys, "charpoly", "--ns", ns_files["five_lines"])
    _, whit, _, _ = run(capsys, "charpoly", "--ns", ns_files["five_lines"],
                        "--method", "whitney")
    assert dflt["payload"] == whit["payload"]
    assert whit["payload"]["coefficients"] == [1, -10, 30, -21, 0, 0]
    assert whit["payload"]["method"] == "whitney"
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "--ns", ns_files["five_lines"],
              "--method", "poset"])
    assert exc.value.code == 2


def test_gen_is_deterministic(capsys, tmp_path):
    out = str(tmp_path / "ns.json")
    code, rep1, _, _ = run(capsys, "gen", "--n", "4", "--m", "2",
                           "--seed", "11", "--out", out)
    assert code == 0
    assert rep1["seed"] == 11
    _, rep2, _, _ = run(capsys, "gen", "--n", "4", "--m", "2", "--seed", "11")
    assert rep1["payload"] == rep2["payload"]
    # the artifact feeds straight back into another command
    code, rep, _, _ = run(capsys, "count", "--ns", out)
    assert code == 0 and rep["payload"]["cones"] == 8


def test_gen_default_seed_echoed(capsys):
    _, rep, _, _ = run(capsys, "gen", "--n", "4", "--m", "2")
    assert rep["seed"] == 0


def test_seed_is_reported_only_where_it_is_read(capsys, ns_files):
    # catalog-verify samples its pairs with seed 0 unless told otherwise;
    # a command that samples nothing reports a null seed
    ns = ns_files["four_lines"]
    _, rep, _, _ = run(capsys, "catalog-verify", "--ns", ns)
    assert rep["seed"] == 0
    _, seeded, _, _ = run(capsys, "catalog-verify", "--ns", ns, "--seed", "0")
    assert rep["payload"] == seeded["payload"]
    _, rep, _, _ = run(capsys, "count", "--ns", ns)
    assert rep["seed"] is None


def test_disc_artifact(capsys, ns_files, tmp_path):
    out = str(tmp_path / "da.json")
    code, rep, _, _ = run(capsys, "disc", "--ns", ns_files["four_lines"],
                          "--out", out)
    assert code == 0
    data = json.loads(open(out).read())
    assert data == rep["payload"]
    assert data["n"] == 4 and data["m"] == 2
    assert [h["subset"] for h in data["hyperplanes"]] == \
        [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]


def test_chambers_classify_chain(capsys, ns_files, tmp_path):
    cat = str(tmp_path / "catalog.json")
    code, rep, _, _ = run(capsys, "chambers", "--ns", ns_files["four_lines"],
                          "--out", cat)
    assert code == 0
    assert rep["payload"]["count"] == 8 and rep["payload"]["classes"] == 4
    code, rep, _, _ = run(capsys, "classify", "--ns", ns_files["four_lines"],
                          "--b", "1,2,4,8", "--catalog", cat)
    assert code == 0
    pay = rep["payload"]
    assert pay["on_wall"] is None
    assert len(pay["signs"]) == 4 and set(pay["signs"]) <= set("+-")
    assert pay["class"] in range(1, 5)


# SHA-256 of the chambers --out file, as json.dump(..., indent=1) wrote it
CATALOG_FILE_SHA256 = {
    "five_lines":
        "c18b911c9501d6e7af67a602503951b019a8dfc8fb5a799ff18f1206d17aefd0",
    "six_planes_free":
        "edf482959e73b6416f0cb5233832c036a1be07b7ed0997467f2fccc37a2c1214",
}


@pytest.mark.parametrize("name", sorted(CATALOG_FILE_SHA256))
def test_chambers_out_file_is_pinned(capsys, tmp_path, name):
    ns = tmp_path / "ns.json"
    ns.write_text(json.dumps(ns_to_dict(getattr(gallery, name)())))
    cat = tmp_path / "catalog.json"
    code, rep, _, _ = run(capsys, "chambers", "--ns", str(ns),
                          "--out", str(cat))
    assert code == 0 and json.loads(cat.read_text()) == rep["payload"]
    assert hashlib.sha256(cat.read_bytes()).hexdigest() == \
        CATALOG_FILE_SHA256[name]


def test_classify_refuses_a_catalog_of_another_system(capsys, ns_files,
                                                      tmp_path):
    # a five_lines catalog shares sign vectors with the seeded (5,2)
    # system; a b in a shared cone gets a JSON NotInCatalog, not the other
    # system's class id
    ns = str(tmp_path / "ns.json")
    own = str(tmp_path / "own.json")
    foreign = str(tmp_path / "foreign.json")
    run(capsys, "gen", "--n", "5", "--m", "2", "--seed", "1", "--out", ns)
    run(capsys, "chambers", "--ns", ns, "--out", own)
    run(capsys, "chambers", "--ns", ns_files["five_lines"], "--out", foreign)
    theirs = {c["signs"] for c in json.loads(
        pathlib.Path(foreign).read_text())["chambers"]}
    c = next(c for c in json.loads(pathlib.Path(own).read_text())["chambers"]
             if c["signs"] in theirs)
    b = "--b=" + ",".join(c["witness"])
    code, rep, _, _ = run(capsys, "classify", "--ns", ns, b,
                          "--catalog", own)
    assert code == 0 and rep["payload"]["class"] == c["class"]
    code, _, err, cap = run(capsys, "classify", "--ns", ns, b,
                            "--catalog", foreign)
    assert code == 1 and cap.out == ""
    assert err["error"] == {
        "type": "NotInCatalog", "signs": c["signs"],
        "message": "catalog does not belong to the arrangement"}


def test_classify_without_catalog(capsys, ns_files):
    _, rep, _, _ = run(capsys, "classify", "--ns", ns_files["four_lines"],
                       "--b", "1,2,4,8")
    assert rep["payload"]["class"] is None
    assert rep["payload"]["signs"] is not None


def test_classify_on_wall(capsys, ns_files):
    _, rep, _, _ = run(capsys, "classify", "--ns", ns_files["four_lines"],
                       "--b", "0,0,0,0")
    assert rep["payload"]["signs"] is None
    assert rep["payload"]["on_wall"] == [[1, 2, 3], [1, 2, 4],
                                         [1, 3, 4], [2, 3, 4]]


def test_classify_accepts_rationals(capsys, ns_files):
    _, rep, _, _ = run(capsys, "classify", "--ns", ns_files["four_lines"],
                       "--b", "1/2, -3/4, 5, 7/3")
    assert rep["payload"]["signs"] is not None


@pytest.mark.parametrize("name", ["five_lines", "six_planes_free"])
def test_plain_integer_loads_parse_no_rational(capsys, monkeypatch,
                                               tmp_path, name):
    # a gallery ns file and its catalog are read by int, with no
    # parse_rational call, and classify --catalog turns the witness of
    # the one chamber it looks up into ints, no other; --b is read part
    # by part by parse_rational, which reads a "p" as an int
    ns = getattr(gallery, name)()
    cat = enumerate_chambers(build(ns))
    ns_path, cat_path = tmp_path / "ns.json", tmp_path / "catalog.json"
    ns_path.write_text(json.dumps(ns_to_dict(ns)))
    cat_path.write_text(json.dumps(catalog_to_dict(cat)))

    def refuse(*args, **where):
        raise AssertionError("parse_rational called")

    read = exact_linalg.parse_rational
    for module in (exact_linalg, normal_system, chambers):
        monkeypatch.setattr(module, "parse_rational", refuse)
    b_parts = []
    monkeypatch.setattr(cli, "parse_rational",
                        lambda s, **where: b_parts.append(where)
                        or read(s, **where))
    parsed = []
    ints = chambers._ints
    monkeypatch.setattr(chambers, "_ints",
                        lambda text: parsed.append(text) or ints(text))
    target = cat[len(cat) // 3]
    code, rep, _, _ = run(capsys, "classify", "--ns", str(ns_path),
                          "--catalog", str(cat_path),
                          "--b=" + ", ".join(map(str, target.witness)))
    assert code == 0 and rep["payload"] == {
        "signs": target.signs, "class": target.class_id, "on_wall": None}
    assert parsed == [",".join(map(str, target.witness))]
    assert b_parts == [{"position": i} for i in range(1, ns.n + 1)]


def test_catalog_verify(capsys, ns_files, tmp_path):
    cat = str(tmp_path / "catalog.json")
    run(capsys, "chambers", "--ns", ns_files["four_lines"], "--out", cat)
    code, rep, _, _ = run(capsys, "catalog-verify",
                          "--ns", ns_files["four_lines"],
                          "--catalog", cat, "--pairs", "20", "--seed", "3")
    assert code == 0
    pay = rep["payload"]
    assert pay["ok"] is True
    assert pay["catalog"]["count"] == 8
    assert pay["cross_validation"]["mismatches"] == 0
    assert pay["cross_validation"]["pairs"] > 0
    # rerun with the same seed: byte-identical payload
    _, rep2, _, _ = run(capsys, "catalog-verify",
                        "--ns", ns_files["four_lines"],
                        "--catalog", cat, "--pairs", "20", "--seed", "3")
    assert json.dumps(rep["payload"], sort_keys=True) == \
        json.dumps(rep2["payload"], sort_keys=True)


def test_catalog_verify_detects_tampering(capsys, ns_files, tmp_path):
    cat = str(tmp_path / "catalog.json")
    run(capsys, "chambers", "--ns", ns_files["four_lines"], "--out", cat)
    data = json.loads(open(cat).read())
    data["chambers"][0]["class"] = data["chambers"][1]["class"]
    open(cat, "w").write(json.dumps(data))
    _, rep, _, _ = run(capsys, "catalog-verify",
                       "--ns", ns_files["four_lines"], "--catalog", cat,
                       "--pairs", "64", "--seed", "0")
    assert rep["payload"]["ok"] is False


@pytest.mark.parametrize("ns", ["four_lines", None])
def test_catalog_verify_refuses_negative_pairs(capsys, ns_files, ns):
    # refused up front, before the ns file is read: a missing file gives
    # the same error, and no pairs are silently skipped
    path = ns_files[ns] if ns else "no-such-file.json"
    code, out, err, cap = run(capsys, "catalog-verify", "--ns", path,
                              "--pairs", "-3")
    assert code == 1 and out is None and cap.out == ""
    assert err["error"]["type"] == "ArrangementError"
    assert err["error"]["got"] == -3
    assert "--pairs" in err["error"]["message"]


@pytest.mark.parametrize("pairs,checked", [("0", 0), ("50", 50),
                                            ("4000", 62 * 62)])
def test_catalog_verify_reports_an_on_wall_witness(capsys, ns_files,
                                                   tmp_path, pairs, checked):
    # a witness on a wall is a failed check, not an error: every --pairs
    # value gives the report with ok false, and a sampled pair that holds
    # that witness counts as a mismatch
    ns = ns_files["five_lines"]
    cat = tmp_path / "catalog.json"
    run(capsys, "chambers", "--ns", ns, "--out", str(cat))
    data = json.loads(cat.read_text())
    data["chambers"][3]["witness"] = ["0"] * 5
    cat.write_text(json.dumps(data))
    code, rep, _, cap = run(capsys, "catalog-verify", "--ns", ns,
                            "--catalog", str(cat), "--pairs", pairs)
    assert code == 0 and cap.err == ""
    pay = rep["payload"]
    assert pay["ok"] is False and pay["catalog"]["witnesses_ok"] is False
    assert pay["cross_validation"]["pairs"] == checked
    if checked == 62 * 62:  # every pair with chamber 4 on one side
        assert pay["cross_validation"]["mismatches"] == 2 * 62 - 1


def test_catalog_verify_makes_one_sign_pass_per_witness_check(
        capsys, monkeypatch, ns_files, tmp_path):
    # the witness check and the cross-validation each read a chamber's
    # sign vector at most once, however many pairs are sampled
    ns = ns_files["five_lines"]
    cat = str(tmp_path / "catalog.json")
    run(capsys, "chambers", "--ns", ns, "--out", cat)
    calls = []

    def counted(*args, compute=discriminantal._wall_values):
        calls.append(args)
        return compute(*args)

    for module in (affine_geometry, chambers):
        monkeypatch.setattr(module, "_wall_values", counted)
    for pairs, checked in [("0", 0), ("50", 50), ("4000", 62 * 62)]:
        calls.clear()
        code, rep, _, _ = run(capsys, "catalog-verify", "--ns", ns,
                              "--catalog", cat, "--pairs", pairs)
        assert code == 0 and rep["payload"]["ok"] is True
        assert rep["payload"]["cross_validation"] == {"pairs": checked,
                                                      "mismatches": 0}
        assert 62 <= len(calls) <= 2 * 62


def test_cone_reads_make_no_quotient_row(capsys, monkeypatch, ns_files,
                                         tmp_path):
    # classify --catalog and the affine readings take their signs from the
    # wall-value kernel; none of them makes a quotient row
    ns = ns_files["four_lines"]
    cat = str(tmp_path / "catalog.json")
    run(capsys, "chambers", "--ns", ns, "--out", cat)

    def refuse(*args):
        raise AssertionError("quotient rows made")

    monkeypatch.setattr(discriminantal, "_quotient", refuse)
    b = "--b=1,2,4,8"
    for argv in (["classify", "--ns", ns, b, "--catalog", cat],
                 ["regions", "--ns", ns, b], ["signature", "--ns", ns, b],
                 ["iso", "--ns", ns, "--b1=1,2,4,8", "--b2=-1,-2,-4,-8"]):
        code, rep, _, _ = run(capsys, *argv)
        assert code == 0, argv
    assert rep["payload"] == {"isomorphic": True}
    with pytest.raises(AssertionError):  # counting reads the quotient
        main(["count", "--ns", ns])


def test_check_cf(capsys, ns_files):
    _, rep, _, _ = run(capsys, "check-cf", "--ns", ns_files["five_lines"])
    assert rep["payload"] == {"free": True, "witness": None}


def test_closure_inline_members(capsys):
    _, rep, _, _ = run(capsys, "closure", "--n", "4", "--m", "2",
                       "--members", "123,124")
    pay = rep["payload"]
    assert pay["closure"]["members"] == [[1, 2, 3], [1, 2, 4],
                                         [1, 3, 4], [2, 3, 4]]
    assert pay["orders"] == [{"set": [1, 2, 3, 4], "order": 4}]
    assert pay["combinatorial_rank"] == 2
    assert pay["base"] == [[1, 2, 3], [1, 2, 4]]


def test_closure_already_closed(capsys):
    _, rep, _, _ = run(capsys, "closure", "--n", "6", "--m", "2",
                       "--members", "123,156,345")
    pay = rep["payload"]
    assert len(pay["closure"]["members"]) == 3
    assert [o["order"] for o in pay["orders"]] == [3, 3, 3]
    assert pay["combinatorial_rank"] == 3


def test_closure_from_file(capsys, tmp_path):
    p = tmp_path / "col.json"
    p.write_text(json.dumps({"n": 4, "m": 2, "members": [[1, 2, 3]]}))
    _, rep, _, _ = run(capsys, "closure", "--collection", str(p))
    assert rep["payload"]["closure"]["members"] == [[1, 2, 3]]


def test_closure_universe_guard(capsys):
    # C(30, 3) = 4060 subsets: refused before any closure work
    code, _, err, cap = run(capsys, "closure", "--n", "30", "--m", "2",
                            "--members", "123")
    assert code == 1 and cap.out == ""
    assert err["error"]["type"] == "TooLarge"
    assert err["error"]["subsets"] == 4060


@pytest.mark.parametrize("doc,kind", [
    ({}, "BadArtifact"), ([1, 2], "BadArtifact"), (None, "BadArtifact"),
    ({"n": 4, "m": 2}, "BadArtifact"),
    ({"n": 4, "m": 2, "members": 5}, "BadArtifact"),
    ({"n": 4, "m": 2, "members": [[1, 2, "x"]]}, "BadArtifact"),
    ({"n": 4, "m": 2, "members": ["123"]}, "BadArtifact"),
    ({"n": 4, "m": 2, "members": [[1, 2, 3.0]]}, "BadArtifact"),
    ({"n": "4", "m": 2, "members": [[1, 2, 3]]}, "BadArtifact"),
    ({"n": 4.5, "m": 2, "members": [[1, 2, 3]]}, "BadArtifact"),
    ({"n": 4, "m": True, "members": [[1, 2, 3]]}, "BadArtifact"),
    ({"n": 4, "m": 2, "members": [[1, 2, 5]]}, "BadSubsetSize"),
    ({"n": 4, "m": 2, "members": [[1, 2]]}, "BadSubsetSize"),
    ({"n": 4, "m": 2, "members": [[1, 1, 2]]}, "BadSubsetSize"),
], ids=["empty", "list", "null", "no_members", "members_int", "entry_x",
        "member_str", "entry_float", "n_str", "n_float", "m_bool",
        "out_of_range", "short", "repeated"])
def test_bad_collection_file_exit_1(capsys, tmp_path, doc, kind):
    # a wrong layout, or an "n", "m" or member entry that is not a JSON
    # integer, is refused ("4" and 4.5 are not read as 4); a member that is
    # not an (m+1)-subset of {1..n} is refused by its collection
    path = tmp_path / "col.json"
    path.write_text(json.dumps(doc))
    code, _, err, cap = run(capsys, "closure", "--collection", str(path))
    assert code == 1 and cap.out == ""
    assert err["error"]["type"] == kind


def test_closure_needs_input(capsys):
    code, _, err, _ = run(capsys, "closure")
    assert code == 1
    assert err["error"]["type"] == "ArrangementError"


def test_regions_golden(capsys, ns_files):
    _, rep, _, _ = run(capsys, "regions", "--ns", ns_files["four_lines"],
                       "--b", "1,2,4,8")
    assert rep["payload"] == {"total": 11, "bounded": 3, "unbounded": 8}


def test_signature_golden(capsys, ns_files):
    _, rep, _, _ = run(capsys, "signature", "--ns", ns_files["four_lines"],
                       "--b", "1,2,4,8")
    assert rep["payload"]["triangles"] == [[1, 2, 3], [2, 3, 4]]


def test_iso_antipodal(capsys, ns_files):
    code, rep, _, _ = run(capsys, "iso", "--ns", ns_files["four_lines"],
                          "--b1", "1,2,4,8", "--b2=-1,-2,-4,-8")
    assert code == 0 and rep["payload"] == {"isomorphic": True}


def test_iso_distinguishes_classes(capsys, ns_files, tmp_path):
    cat = str(tmp_path / "catalog.json")
    run(capsys, "chambers", "--ns", ns_files["four_lines"], "--out", cat)
    data = json.loads(open(cat).read())
    by_class = {}
    for ch in data["chambers"]:
        by_class.setdefault(ch["class"], ch["witness"])
    w1, w2 = by_class[1], by_class[2]
    _, rep, _, _ = run(capsys, "iso", "--ns", ns_files["four_lines"],
                       "--b1=" + ",".join(w1), "--b2=" + ",".join(w2))
    assert rep["payload"] == {"isomorphic": False}


def test_census_free_mode(capsys):
    _, rep, _, _ = run(capsys, "census", "--n", "5", "--m", "2")
    assert rep["payload"] == {"n": 5, "m": 2,
                              "chi": [1, -10, 30, -21, 0, 0],
                              "cones": 62, "classes": 31}


def test_census_ns_mode_matches_free(capsys, ns_files):
    _, free, _, _ = run(capsys, "census", "--n", "5", "--m", "2")
    _, posetr, _, _ = run(capsys, "census", "--mode", "ns-file",
                          "--ns", ns_files["five_lines"])
    assert free["payload"] == posetr["payload"]


@pytest.mark.parametrize("n,m,cones", [(7, 2, 22612), (7, 3, 5460)])
def test_census_free_rows_at_seven_lines(capsys, tmp_path, n, m, cones):
    # the free count does not depend on the system, so it must equal the
    # matrix count of any seeded system the freeness search certifies
    _, rep, _, _ = run(capsys, "census", "--n", str(n), "--m", str(m))
    assert (rep["payload"]["cones"], rep["payload"]["classes"]) == (
        cones, cones // 2)
    path = str(tmp_path / "ns.json")
    run(capsys, "gen", "--n", str(n), "--m", str(m), "--seed", "1",
        "--bound", "9", "--out", path)
    _, verdict, _, _ = run(capsys, "check-cf", "--ns", path)
    assert verdict["payload"] == {"free": True, "witness": None}
    _, count, _, _ = run(capsys, "count", "--ns", path)
    assert count["payload"]["coefficients"] == rep["payload"]["chi"]


def test_census_rejects_m_zero_up_front(capsys):
    # m = 0 passes the subset guard (C(36, 1) = 36) but would walk 2^36
    # index sets; it is refused before any work
    t0 = time.perf_counter()
    code, out, err, _ = run(capsys, "census", "--n", "36", "--m", "0")
    assert time.perf_counter() - t0 < 2
    assert code == 1 and out is None
    assert err["error"]["type"] == "BadShape" and err["error"]["m"] == 0


@pytest.mark.parametrize("n,m", [(5, 7), (3, 3), (0, 2), (-1, 2), (5, -2)])
def test_census_rejects_n_at_most_m(capsys, n, m):
    # C(n, m+1) = 0 passes the subset guard; the shape is refused, not
    # counted as one region
    code, out, err, _ = run(capsys, "census", "--mode", "concurrency-free",
                            "--n", str(n), "--m", str(m))
    assert code == 1 and out is None
    assert err["error"]["type"] == "BadShape"
    assert (err["error"]["n"], err["error"]["m"]) == (n, m)


def test_census_braid_row_at_m_one(capsys):
    # m = 1: points on a line, the braid arrangement, chi = x(x-1)...(x-4)
    _, rep, _, _ = run(capsys, "census", "--n", "5", "--m", "1")
    assert rep["payload"] == {"n": 5, "m": 1,
                              "chi": [1, -10, 35, -50, 24, 0],
                              "cones": 120, "classes": 60}


def test_census_missing_args(capsys):
    code, _, err, _ = run(capsys, "census", "--m", "2")
    assert code == 1 and "n" in err["error"]["message"]


def test_domain_error_exit_1(capsys, ns_files):
    code, out, err, cap = run(capsys, "classify",
                              "--ns", ns_files["four_lines"], "--b", "1,2")
    assert code == 1
    assert cap.out == ""
    assert err["error"]["type"] == "LengthMismatch"
    assert err["error"]["expected"] == 4


@pytest.mark.parametrize("b", ["1,2,x,4,5", "1,2,3,4,5/0"])
@pytest.mark.parametrize("command", ["classify", "regions", "signature",
                                     "iso"])
def test_bad_b_exit_1(capsys, ns_files, command, b):
    args = (["--b1", b, "--b2", "1,2,3,4,5"] if command == "iso"
            else ["--b", b])
    code, _, err, cap = run(capsys, command, "--ns", ns_files["five_lines"],
                            *args)
    assert code == 1 and cap.out == ""
    assert err["error"]["type"] == "BadRational"
    assert err["error"]["got"] == b.split(",")[2 if "x" in b else 4]


@pytest.mark.parametrize("part", ["\u0661", "\u00b2", "1\u0662", "\uff13",
                                  "\u0661/2"])
def test_non_ascii_b_exit_1(capsys, ns_files, part):
    # Fraction reads the Arabic-Indic and full-width digits; an input
    # value is refused unless its digits are 0-9
    code, _, err, cap = run(capsys, "classify", "--ns",
                            ns_files["four_lines"], "--b=2,%s,4,8" % part)
    assert code == 1 and cap.out == ""
    assert err["error"] == {"type": "BadRational", "got": part,
                            "position": 2,
                            "message": "not an exact rational p or p/q "
                                       "with q != 0"}


@pytest.mark.parametrize("code", ["\u00b2\u00b3\u2074",
                                  "\u0661\u0662\u0663", "12x", ""])
def test_closure_non_ascii_members_exit_1(capsys, code):
    # superscripts pass str.isdigit but not int, and int reads the
    # Arabic-Indic digits: both are refused, as is an empty code
    status, _, err, cap = run(capsys, "closure", "--n", "5", "--m", "2",
                              "--members=124,%s" % code)
    assert status == 1 and cap.out == ""
    assert err["error"] == {"type": "ArrangementError", "got": code,
                            "message": "subset codes must be strings of 0-9"}


@pytest.mark.parametrize("data,kind", [
    ({"m": 2}, "BadArtifact"),
    ({"rows": [["1", "0"], ["0", "1"], ["1", "1"]]}, "BadArtifact"),
    ({"m": 2, "rows": "1,0;0,1;1,1"}, "BadArtifact"),
    ([["1", "0"], ["0", "1"], ["1", "1"]], "BadArtifact"),
    ({"m": 2, "rows": [["1", "0"], ["0", "x"], ["1", "1"]]}, "BadRational"),
    ({"m": float("inf"), "rows": [["1", "0"], ["0", "1"], ["1", "1"]]},
     "BadArtifact"),
    ({"m": 2.9, "rows": [["1", "0"], ["0", "1"], ["1", "1"]]},
     "BadArtifact"),
    ({"m": 2, "rows": [[True, False], [0, 1.5], [1, 1]]}, "BadRational"),
    ({"m": True, "rows": [["1", "0"], ["0", "1"]]}, "BadArtifact"),
    ({"m": 2, "rows": [["1", "0"], ["0", "\u0661"], ["1", "1"]]},
     "BadRational"),
])
def test_bad_ns_file_exit_1(capsys, tmp_path, data, kind):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err, cap = run(capsys, "count", "--ns", str(path))
    assert code == 1 and cap.out == ""
    assert err["error"]["type"] == kind


# values of the wrong type or form, in place of an entry, "m" or "rows"
_ODD = st.one_of(st.none(), st.booleans(), st.floats(),
                 st.sampled_from(["x", "", "1/0", "3/2", "-1/4", "1.5",
                                  float("inf"), float("nan")]),
                 st.text(max_size=3),
                 st.lists(st.integers(-2, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=1))


@st.composite
def ns_documents(draw):
    """ns documents near the format gen writes, with up to three faults."""
    m = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    n = draw(st.integers(0, 6))
    rows = [[draw(st.integers(-9, 9)) for _ in range(m)] for _ in range(n)]
    doc = {"m": m, "rows": rows}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["entry", "width", "dependent", "row",
                                      "drop", "extra", "m", "rows", "top"]))
        full = [i for i, row in enumerate(rows) if isinstance(row, list)
                and row]
        if fault in ("entry", "width", "dependent", "row"):
            if not full:
                continue
            i = draw(st.sampled_from(full))
        if fault == "entry":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_ODD)
        elif fault == "width":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [1]
        elif fault == "dependent":
            rows.append([2 * a if type(a) is int else a for a in rows[i]])
        elif fault == "row":
            rows[i] = draw(_ODD)
        elif fault == "drop":
            doc.pop(draw(st.sampled_from(["m", "rows"])), None)
        elif fault == "extra":
            doc[draw(st.text(max_size=3))] = draw(_ODD)
        elif fault in ("m", "rows"):
            doc[fault] = draw(_ODD)
        else:
            return draw(st.sampled_from([rows, m, None, "ns"]))
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=ns_documents())
def test_check_cf_fuzzed_ns_documents(tmp_path_factory, doc):
    # any document either gets an answer or a JSON error, never a
    # traceback, from check-cf and from count; an answer means "m" was a
    # JSON integer and every entry an integer or a string
    path = tmp_path_factory.mktemp("fuzz") / "ns.json"
    path.write_text(json.dumps(doc))
    for command, keys in [("check-cf", {"free", "witness"}),
                          ("count", {"cones", "classes"})]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--ns", str(path)])
        if code == 0:
            assert keys <= set(json.loads(out.getvalue())["payload"])
            assert type(doc["m"]) is int
            assert all(type(a) in (int, str)
                       for row in doc["rows"] for a in row)
        else:
            assert code == 1 and out.getvalue() == ""
            assert json.loads(err.getvalue())["error"]["type"]


@pytest.mark.parametrize("command", ["classify", "catalog-verify"])
@pytest.mark.parametrize("damage,kind", [
    (lambda cat: cat.pop("chambers"), "BadArtifact"),
    (lambda cat: cat["chambers"][0].update(witness="1,2"), "BadArtifact"),
    (lambda cat: cat["chambers"][2]["witness"].__setitem__(1, "x"),
     "BadRational"),
], ids=["no_chambers", "witness_not_list", "witness_x"])
def test_bad_catalog_file_exit_1(capsys, ns_files, tmp_path, command,
                                 damage, kind):
    path = tmp_path / "catalog.json"
    run(capsys, "chambers", "--ns", ns_files["four_lines"],
        "--out", str(path))
    cat = json.loads(path.read_text())
    damage(cat)
    path.write_text(json.dumps(cat))
    extra = ["--b", "1,2,4,8"] if command == "classify" else []
    code, _, err, cap = run(capsys, command, "--ns", ns_files["four_lines"],
                            "--catalog", str(path), *extra)
    assert code == 1 and cap.out == ""
    assert err["error"]["type"] == kind
    if kind == "BadRational":
        assert (err["error"]["got"], err["error"]["chamber"],
                err["error"]["position"]) == ("x", 3, 2)


@pytest.mark.parametrize("command", ["classify", "catalog-verify"])
@pytest.mark.parametrize("key,value", [("n", 4.0), ("m", 2.0),
                                       ("chambers", ""), ("chambers", {})],
                         ids=["n_float", "m_float", "chambers_empty_string",
                              "chambers_object"])
def test_catalog_layout_needs_integers_and_a_chamber_list(
        capsys, ns_files, tmp_path, command, key, value):
    # 4.0 is not the integer 4, and an empty string or object is not an
    # empty list of chambers: each is a BadArtifact, not a catalog
    path = tmp_path / "catalog.json"
    run(capsys, "chambers", "--ns", ns_files["four_lines"],
        "--out", str(path))
    cat = json.loads(path.read_text())
    cat[key] = value
    path.write_text(json.dumps(cat))
    extra = ["--b", "1,2,4,8"] if command == "classify" else []
    code, _, err, cap = run(capsys, command, "--ns", ns_files["four_lines"],
                            "--catalog", str(path), *extra)
    assert code == 1 and cap.out == ""
    assert err["error"]["type"] == "BadArtifact"


def test_catalog_non_ascii_witness_exit_1(capsys, ns_files, tmp_path):
    # a witness entry goes through the same reader as every input value
    path = tmp_path / "catalog.json"
    run(capsys, "chambers", "--ns", ns_files["four_lines"],
        "--out", str(path))
    cat = json.loads(path.read_text())
    cat["chambers"][2]["witness"][1] = "\u0661"
    path.write_text(json.dumps(cat))
    code, _, err, cap = run(capsys, "catalog-verify", "--ns",
                            ns_files["four_lines"], "--catalog", str(path))
    assert code == 1 and cap.out == ""
    assert (err["error"]["type"], err["error"]["got"],
            err["error"]["chamber"], err["error"]["position"]) == (
        "BadRational", "\u0661", 3, 2)


def _main_streams(argv):
    """Exit code, stdout and stderr of main(argv) run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


FOUR_LINES_CATALOG = catalog_to_dict(enumerate_chambers(
    build(gallery.four_lines())))
# witness entries of the wrong type or form; JSON 7 is an exact rational
# that parse_rational reads, "-0" is a zero, and "+7", " 7" and "1.5" are
# outside the forms a catalog is written in
_ENTRIES = [True, 1.5, 7, "x", "1/0", "+7", " 7", "1.5", "-0"]
# fresh copies, so that a document never holds one list or dict twice
# (nor, through a later fault, itself)
_VALUES = st.sampled_from([None, True, 1.5, 7, "x", "", [], [1], {}]).map(
    copy.deepcopy)


@st.composite
def damaged_catalogs(draw):
    """The four_lines catalog with one to three faults."""
    doc = json.loads(json.dumps(FOUR_LINES_CATALOG))
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(["entry", "entry", "key", "value",
                                      "chamber", "top"]))
        if fault == "top":
            return draw(_VALUES)
        chambers = doc.get("chambers")
        full = isinstance(chambers, list) and chambers
        if fault in ("key", "value") and (not full or draw(st.booleans())):
            where, keys = doc, ["n", "m", "chambers", "count", "classes"]
        elif full:
            k = draw(st.integers(0, len(chambers) - 1))
            if fault == "chamber":
                chambers[k] = draw(_VALUES)
                continue
            where, keys = chambers[k], ["signs", "witness", "class"]
        else:
            continue
        if not isinstance(where, dict):
            continue
        if fault == "entry":
            witness = where.get("witness")
            if isinstance(witness, list) and witness:
                i = draw(st.integers(0, len(witness) - 1))
                witness[i] = draw(st.sampled_from(_ENTRIES))
        elif fault == "key":
            where.pop(draw(st.sampled_from(keys)), None)
        else:
            where[draw(st.sampled_from(keys))] = draw(_VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=damaged_catalogs())
def test_damaged_catalogs_answer_or_fail_cleanly(tmp_path_factory, ns_files,
                                                 doc):
    # a damaged catalog gets an answer or one JSON error line, never a
    # traceback, from both commands that load a catalog
    path = tmp_path_factory.mktemp("catalog") / "catalog.json"
    path.write_text(json.dumps(doc))
    for extra in (["classify", "--b", "1,2,4,8"], ["catalog-verify"]):
        code, out, err = _main_streams(
            [extra[0], "--ns", ns_files["four_lines"], "--catalog",
             str(path)] + extra[1:])
        if code == 0:
            assert err == "" and out.count("\n") == 1
            assert "payload" in json.loads(out)
        else:
            assert code == 1 and out == "" and err.count("\n") == 1
            assert json.loads(err)["error"]["type"]


@st.composite
def collection_documents(draw):
    """closure files near the format collection_to_dict writes, with up to
    three faults."""
    n, m = draw(st.integers(0, 7)), draw(st.integers(1, 3))
    members = draw(st.lists(st.lists(st.integers(1, 7), min_size=m + 1,
                                     max_size=m + 1, unique=True),
                            max_size=4))
    doc = {"n": n, "m": m, "members": members}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["entry", "entry", "member", "drop",
                                      "extra", "n", "m", "members", "top"]))
        members = doc.get("members")
        if fault in ("entry", "member"):
            if not (isinstance(members, list) and members):
                continue
            k = draw(st.integers(0, len(members) - 1))
            if fault == "member":
                members[k] = draw(_ODD)
            elif isinstance(members[k], list) and members[k]:
                i = draw(st.integers(0, len(members[k]) - 1))
                members[k][i] = draw(_ODD)
        elif fault == "drop":
            doc.pop(draw(st.sampled_from(["n", "m", "members"])), None)
        elif fault == "extra":
            doc[draw(st.text(max_size=3))] = draw(_ODD)
        elif fault in ("n", "m", "members"):
            doc[fault] = draw(_ODD)
        else:
            return draw(st.sampled_from([members, n, None, "closure"]))
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=collection_documents())
def test_closure_fuzzed_collection_documents(tmp_path_factory, doc):
    # any collection file gets an answer or one JSON error line, never a
    # traceback; an answer means "n", "m" and every member entry were JSON
    # integers
    path = tmp_path_factory.mktemp("collection") / "collection.json"
    path.write_text(json.dumps(doc))
    code, out, err = _main_streams(["closure", "--collection", str(path)])
    if code == 0:
        assert err == "" and out.count("\n") == 1
        assert "closure" in json.loads(out)["payload"]
        assert type(doc["n"]) is int and type(doc["m"]) is int
        assert all(type(i) is int for s in doc["members"] for i in s)
    else:
        assert code == 1 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["type"]


@st.composite
def inline_lists(draw):
    """Comma-separated inline values near the forms the CLI reads: signed
    integers, fractions, subset codes, and parts with Unicode and
    superscript digits, underscores, blanks, or nothing between two
    commas."""
    part = st.one_of(
        st.integers(-20, 20).map(str),
        st.sampled_from(["1/2", "-3/4", "1/0", "1_0", "_", "1e2", "+3",
                         "1.5", " 7", "x", "", "123", "124", "345",
                         "\u00b2", "\u00b3\u2074", "\u0661", "\u0661\u0662\u0663",
                         "\uff11", "\u00a01"]),
        st.text(alphabet="0123456789-/_+. \u00b2\u00b3\u0661\u0662\uff11",
                max_size=4))
    parts = draw(st.lists(part, max_size=6))
    return (draw(st.sampled_from(["", ","])) + ",".join(parts)
            + draw(st.sampled_from(["", ","])))


@settings(max_examples=150, deadline=None)
@given(b1=inline_lists(), b2=inline_lists(), members=inline_lists())
def test_inline_arguments_answer_or_fail_cleanly(ns_files, b1, b2, members):
    # every inline --b, --b1/--b2 and --members value gets an answer or
    # one JSON error line, never a traceback; an answer means every part
    # was read from the digits 0-9
    four = ns_files["four_lines"]
    for argv, texts in [
            (["classify", "--ns", four, "--b=" + b1], [b1]),
            (["iso", "--ns", four, "--b1=" + b1, "--b2=" + b2], [b1, b2]),
            (["closure", "--n", "5", "--m", "2", "--members=" + members],
             [members])]:
        code, out, err = _main_streams(argv)
        if code == 0:
            assert err == "" and out.count("\n") == 1
            assert "payload" in json.loads(out)
            assert all(part.strip().isascii()
                       for text in texts for part in text.split(","))
        else:
            assert code == 1 and out == "" and err.count("\n") == 1
            assert json.loads(err)["error"]["type"]


_VERIFY_OK = {"catalog": {"class_count_matches": True, "classes": 4,
                          "count": 8, "count_matches": True,
                          "pairing_ok": True, "witnesses_ok": True,
                          "zaslavsky": 8},
              "cross_validation": {"mismatches": 0, "pairs": 50},
              "ok": True}


@pytest.mark.parametrize("entry,verified", [
    ("+7", None), (7, _VERIFY_OK), ("1.5", None),
], ids=["plus_seven", "json_seven", "one_point_five"])
def test_catalog_entries_outside_the_integer_form(tmp_path, ns_files, entry,
                                                  verified):
    # the third chamber's witness becomes (-1, entry, 0, 0): a JSON integer
    # keeps its answers, and a string outside the forms catalog files are
    # written in ("p", "p/q") is refused by both commands, as "x" is
    doc = json.loads(json.dumps(FOUR_LINES_CATALOG))
    doc["chambers"][2]["witness"][1] = entry
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    argv = ["--ns", ns_files["four_lines"], "--catalog", str(path)]
    for extra in (["classify", "--b", "1,2,4,8"], ["catalog-verify"]):
        code, out, err = _main_streams(extra[:1] + argv + extra[1:])
        if verified is None:
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == {
                "type": "BadRational", "got": entry, "chamber": 3,
                "position": 2,
                "message": "not an exact rational p or p/q with q != 0"}
        elif extra[0] == "classify":
            assert code == 0 and json.loads(out)["payload"] == {
                "signs": "---+", "class": 1, "on_wall": None}
        else:
            assert code == 0 and json.loads(out)["payload"] == verified


@pytest.mark.parametrize("form", ["+7", "1.5", ".5", "1e2", "1_0", " 7"])
def test_forms_outside_the_written_grammar_are_refused(capsys, tmp_path,
                                                       ns_files, form):
    # an input value is read only in the forms the tool writes, "p" and
    # "p/q": in an ns file, a catalog and --b, any other form is one
    # BadRational that names it and its place; --b strips the blanks
    # around each part, so " 7" is read there as 7
    message = "not an exact rational p or p/q with q != 0"
    four = ns_files["four_lines"]
    ns = json.loads(open(four).read())
    ns["rows"][1][0] = form
    path = tmp_path / "ns.json"
    path.write_text(json.dumps(ns))
    code, _, err, cap = run(capsys, "count", "--ns", str(path))
    assert code == 1 and cap.out == ""
    assert err["error"] == {"type": "BadRational", "got": form, "row": 2,
                            "column": 1, "message": message}
    doc = json.loads(json.dumps(FOUR_LINES_CATALOG))
    doc["chambers"][2]["witness"][1] = form
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code, _, err, cap = run(capsys, "classify", "--ns", four, "--catalog",
                            str(path), "--b", "1,2,4,8")
    assert code == 1 and cap.out == ""
    assert err["error"] == {"type": "BadRational", "got": form, "chamber": 3,
                            "position": 2, "message": message}
    code, out, err, cap = run(capsys, "classify", "--ns", four,
                              "--b=1,%s,4,8" % form)
    if form.strip() != form:
        assert code == 0 and out["payload"]["signs"]
    else:
        assert code == 1 and cap.out == ""
        assert err["error"] == {"type": "BadRational", "got": form,
                                "position": 2, "message": message}


@pytest.mark.parametrize("place", ["ns", "b", "catalog"])
def test_integers_past_the_digit_limit_are_bad_rationals(
        tmp_path, ns_files, digit_limit, place):
    # an otherwise plain ns file, --b and an otherwise plain catalog with
    # one integer longer than int reads: the value is read entry by
    # entry, and the command fails with the BadRational that
    # parse_rational gives for it at its place, not a ValueError
    huge = "1" + "0" * digit_limit
    four = ns_files["four_lines"]
    if place == "ns":
        where = {"row": 2, "column": 1}
        ns = json.loads(open(four).read())
        ns["rows"][1][0] = huge
        path = tmp_path / "ns.json"
        path.write_text(json.dumps(ns))
        argv = ["count", "--ns", str(path)]
    elif place == "b":
        where = {"position": 2}
        argv = ["classify", "--ns", four, "--b=1,%s,4,8" % huge]
    else:
        where = {"chamber": 3, "position": 2}
        doc = json.loads(json.dumps(FOUR_LINES_CATALOG))
        doc["chambers"][2]["witness"][1] = huge
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc))
        argv = ["catalog-verify", "--ns", four, "--catalog", str(path)]
    with pytest.raises(BadRational) as exc:
        exact_linalg.parse_rational(huge, **where)
    code, out, err = _main_streams(argv)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": exc.value.as_dict()}


def test_disc_past_the_digit_limit_is_too_large(tmp_path, digit_limit):
    # a valid system whose 2501-digit entries are read, and answered by
    # count and chambers, has a minor of 5001 digits, more than int
    # writes: disc, which writes the wall normals, refuses it
    path = tmp_path / "ns.json"
    path.write_text(json.dumps({"m": 2, "rows": [
        ["3" + "0" * 2500, "2"], ["3", "7" + "1" * 2500], ["1", "1"]]}))
    for command in ("count", "chambers"):
        code, out, err = _main_streams([command, "--ns", str(path)])
        assert code == 0 and err == ""
        assert json.loads(out)["payload"]["count" if command == "chambers"
                                          else "cones"] == 2
    code, out, err = _main_streams(["disc", "--ns", str(path)])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": {
        "type": "TooLarge", "message": "number has more digits than int "
        "writes", "limit": digit_limit}}


@pytest.mark.parametrize("key,value", [("class", [1]), ("class", "1"),
                                       ("witness", ["1", "2", "3"])])
def test_catalog_witness_length_and_class_are_checked(capsys, ns_files,
                                                       tmp_path, key, value):
    # a class id that is not a JSON integer, or a witness without n
    # entries, is refused by the loader: catalog-verify used to raise a
    # raw TypeError or IndexError on them
    doc = json.loads(json.dumps(FOUR_LINES_CATALOG))
    doc["chambers"][4][key] = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    for extra in (["classify", "--b", "1,2,4,8"], ["catalog-verify"]):
        code, _, err, cap = run(capsys, extra[0], "--ns",
                                ns_files["four_lines"], "--catalog",
                                str(path), *extra[1:])
        assert code == 1 and cap.out == ""
        assert err["error"]["type"] == "BadArtifact"
        assert err["error"]["chamber"] == 5


def test_count_beyond_22_walls(capsys, tmp_path):
    # a random 7-line planar system has 35 walls
    path = str(tmp_path / "ns.json")
    run(capsys, "gen", "--n", "7", "--m", "2", "--seed", "1", "--out", path)
    code, rep, _, _ = run(capsys, "count", "--ns", path)
    assert code == 0
    assert rep["payload"] == {
        "coefficients": [1, -35, 490, -3381, 10815, -7890, 0, 0],
        "cones": 22612, "classes": 11306}


def test_missing_file_exit_1(capsys, tmp_path):
    code, _, err, _ = run(capsys, "count",
                          "--ns", str(tmp_path / "absent.json"))
    assert code == 1 and err["error"]["type"] == "FileNotFoundError"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charpoly"])  # --ns is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


INTEGER_OPTIONS = [
    ["closure", "--n", "{}", "--m", "2", "--members", "123"],
    ["closure", "--n", "4", "--m", "{}", "--members", "123"],
    ["gen", "--n", "{}", "--m", "2"], ["gen", "--n", "4", "--m", "{}"],
    ["gen", "--n", "4", "--m", "2", "--seed", "{}"],
    ["gen", "--n", "4", "--m", "2", "--bound", "{}"],
    ["census", "--n", "{}", "--m", "2"], ["census", "--n", "4", "--m", "{}"],
    ["count", "--ns", "ns.json", "--max-subsets", "{}"],
    ["chambers", "--ns", "ns.json", "--max-chambers", "{}"],
    ["catalog-verify", "--ns", "ns.json", "--pairs", "{}"],
    ["catalog-verify", "--ns", "ns.json", "--seed", "{}"],
]


@pytest.mark.parametrize("value", ["\u0664", "\u00b2", "\uff14", "x", "+4",
                                   "4_0", " 4", "4.0", ""])
def test_integer_options_take_ascii_digits_only(capsys, value):
    # an Arabic-Indic or fullwidth four, a superscript two, a sign, an
    # underscore or a space is a usage error, as "x" is; int would read
    # all but the superscript
    for argv in INTEGER_OPTIONS:
        argv = [a.format(value) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "invalid int value" in capsys.readouterr().err, argv


def test_negative_integer_options_reach_their_domain_errors(capsys):
    for argv, kind in [
            (["closure", "--n", "-4", "--m", "2", "--members", "123"],
             "BadSubsetSize"),
            (["census", "--n", "-3", "--m", "2"], "BadShape"),
            (["gen", "--n", "4", "--m", "2", "--bound", "-1"], "BadShape")]:
        code, _, err, _ = run(capsys, *argv)
        assert code == 1 and err["error"]["type"] == kind, argv
    code, rep, _, _ = run(capsys, "closure", "--n", "0004", "--m", "2",
                          "--members", "123")
    assert code == 0 and rep["payload"]["closure"]["n"] == 4


# a call of each subcommand that answers on the four_lines system (NS)
_MINIMAL = {
    "gen": ["--n", "4", "--m", "2"],
    "disc": ["--ns", "NS"],
    "charpoly": ["--ns", "NS"],
    "count": ["--ns", "NS"],
    "chambers": ["--ns", "NS"],
    "classify": ["--ns", "NS", "--b", "1,2,4,8"],
    "check-cf": ["--ns", "NS"],
    "closure": ["--n", "4", "--m", "2", "--members", "123"],
    "regions": ["--ns", "NS", "--b", "1,2,4,8"],
    "signature": ["--ns", "NS", "--b", "1,2,4,8"],
    "iso": ["--ns", "NS", "--b1", "1,2,4,8", "--b2=-1,-2,-4,-8"],
    "catalog-verify": ["--ns", "NS"],
    "census": ["--n", "4", "--m", "2"],
}
# the subcommands that read each of the options shared by several
_TAKES = {"--seed": {"gen", "catalog-verify"},
          "--max-chambers": {"chambers", "catalog-verify"},
          "--max-subsets": set(_MINIMAL) - {"closure"}}


def test_every_option_is_read_by_its_command():
    # each option but -h and --format (read by main) is read as
    # args.<dest> by its cmd_*, or by _charpoly_of where that calls it
    top = cli._build_parser()
    sub, = [a for a in top._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_MINIMAL)
    unread = []
    for name, parser in sub.choices.items():
        source = inspect.getsource(getattr(cli, "cmd_" + name.replace(
            "-", "_")))
        if "_charpoly_of(" in source:
            source += inspect.getsource(cli._charpoly_of)
        for action in parser._actions:
            if (action.option_strings
                    and action.dest not in ("help", "format")
                    and not re.search(r"\bargs\.%s\b" % action.dest,
                                      source)):
                unread.append((name, action.option_strings[0]))
    assert unread == []


@pytest.mark.parametrize("command,option", [
    (command, option) for option, takers in _TAKES.items()
    for command in _MINIMAL if command not in takers])
def test_unread_option_is_a_usage_error(capsys, ns_files, command, option):
    argv = [command] + [ns_files["four_lines"] if a == "NS" else a
                        for a in _MINIMAL[command]]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "3"])
    assert exc.value.code == 2
    assert ("unrecognized arguments: %s 3" % option
            in capsys.readouterr().err)


def test_max_subsets_guard(capsys, ns_files):
    code, _, err, _ = run(capsys, "count", "--ns", ns_files["five_lines"],
                          "--max-subsets", "5")
    assert code == 1 and err["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("command", ["count", "check-cf", "classify",
                                     "catalog-verify"])
def test_max_subsets_guard_comes_before_validation(capsys, tmp_path,
                                                   command):
    # rows (t^0..t^9), t = 1..30, on the moment curve: C(30, 11) walls,
    # refused before validation walks the C(30, <= 10) row subsets
    path = tmp_path / "moment.json"
    path.write_text(json.dumps(
        {"m": 10, "rows": [[t ** k for k in range(10)]
                           for t in range(1, 31)]}))
    extra = ["--b", ",".join(["0"] * 30)] if command == "classify" else []
    t0 = time.perf_counter()
    code, out, err, _ = run(capsys, command, "--ns", str(path), *extra)
    assert time.perf_counter() - t0 < 2
    assert code == 1 and out is None
    assert err["error"]["type"] == "TooLarge"
    assert err["error"]["count"] == 54627300


def test_validation_walk_guard(capsys, tmp_path):
    # (t^0..t^19), t = 1..26: C(26, 21) = 65780 walls pass the subset
    # guard, but validation would walk the C(26, <= 20) row subsets
    path = tmp_path / "moment.json"
    path.write_text(json.dumps(
        {"m": 20, "rows": [[t ** k for k in range(20)]
                           for t in range(1, 27)]}))
    t0 = time.perf_counter()
    code, out, err, _ = run(capsys, "count", "--ns", str(path))
    assert time.perf_counter() - t0 < 2
    assert code == 1 and out is None
    assert err["error"]["type"] == "TooLarge"
    assert err["error"]["count"] == 67025181


def test_gen_minor_table_guard(capsys):
    # an (8, 4) system carries C(8, 1) + ... + C(8, 4) = 162 minor table
    # entries: gen refuses them under --max-subsets, as every --ns reader
    # does, before it samples
    code, out, err, _ = run(capsys, "gen", "--n", "8", "--m", "4",
                            "--max-subsets", "100")
    assert code == 1 and out is None
    assert err["error"]["type"] == "TooLarge"
    assert (err["error"]["count"], err["error"]["limit"]) == (162, 100)
    code, out, _, _ = run(capsys, "gen", "--n", "8", "--m", "4",
                          "--max-subsets", "162")
    assert code == 0 and len(out["payload"]["system"]["rows"]) == 8


def test_max_chambers_guard(capsys, ns_files):
    code, _, err, _ = run(capsys, "chambers", "--ns", ns_files["five_lines"],
                          "--max-chambers", "10")
    assert code == 1 and err["error"]["type"] == "TooLarge"


def test_csv_format(capsys, ns_files):
    code, _, _, cap = run(capsys, "count", "--ns", ns_files["four_lines"],
                          "--format", "csv")
    assert code == 0
    lines = cap.out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert keys == {"coefficients", "cones", "classes"}


def test_csv_rows_have_two_fields(capsys, ns_files):
    # a list value holds commas and is quoted; rows without a comma are
    # written as before
    for argv, want in [
            (("count", "--ns", ns_files["four_lines"]),
             [["key", "value"], ["classes", "4"],
              ["coefficients", "[1, -4, 3, 0, 0]"], ["cones", "8"]]),
            (("classify", "--ns", ns_files["four_lines"], "--b", "0,0,0,0"),
             [["key", "value"], ["class", "None"],
              ["on_wall", "[[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]"],
              ["signs", "None"]])]:
        code, _, _, cap = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert list(csv.reader(io.StringIO(cap.out))) == want
        assert [line for line in cap.out.splitlines() if '"' not in line] \
            == ["%s,%s" % tuple(row) for row in want if "," not in row[1]]


def test_text_format(capsys, ns_files):
    code, _, _, cap = run(capsys, "count", "--ns", ns_files["four_lines"],
                          "--format", "text")
    assert code == 0
    assert "cones" in cap.out and "8" in cap.out
    assert not cap.out.startswith("{")


def test_stdout_is_sorted_json(capsys, ns_files):
    _, _, _, cap = run(capsys, "count", "--ns", ns_files["four_lines"])
    parsed = json.loads(cap.out)
    assert cap.out == json.dumps(parsed, sort_keys=True) + "\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from arrcensus import __version__
    assert capsys.readouterr().out.strip() == __version__


def test_parser_is_built_once(capsys, ns_files):
    run(capsys, "count", "--ns", ns_files["four_lines"])
    before = cli._build_parser.cache_info()
    run(capsys, "regions", "--ns", ns_files["four_lines"], "--b", "1,2,4,8")
    after = cli._build_parser.cache_info()
    assert after.misses == before.misses == 1
    assert after.hits == before.hits + 1


def test_commands_are_looked_up_at_call_time(capsys, monkeypatch, ns_files):
    # a wrapper bound at cli.cmd_* after import is the one that runs
    def stub(args, timer):
        return {"stub": args.command}, {}

    monkeypatch.setattr(cli, "cmd_catalog_verify", stub)
    code, rep, _, _ = run(capsys, "catalog-verify", "--ns",
                          ns_files["four_lines"])
    assert code == 0 and rep["payload"] == {"stub": "catalog-verify"}


def test_fresh_interpreter_prints_one_json_line(tmp_path):
    # each command in a new interpreter, exit included, writes its report
    # and nothing else: no warning, no __del__ or atexit output
    ns = tmp_path / "ns.json"
    ns.write_text(json.dumps(ns_to_dict(gallery.five_lines())))
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(catalog_to_dict(enumerate_chambers(
        build(gallery.five_lines())))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys; from arrcensus.cli import main; sys.exit(main())"
    for argv in (["count", "--ns", str(ns)],
                 ["classify", "--ns", str(ns), "--b", "1,2,4,8,17",
                  "--catalog", str(catalog)],
                 ["check-cf", "--ns", str(ns)]):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                               "-c", code] + argv, env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        lines = proc.stdout.split("\n")
        assert len(lines) == 2 and lines[1] == "", argv
        report = json.loads(lines[0])
        assert report["command"] == argv[0] and report["payload"]


@pytest.mark.parametrize("argv,message", [
    (["census", "--mode", "ns-file", "--ns", "NS", "--n", "9", "--m", "7"],
     "census takes no --n or --m in ns-file mode"),
    (["census", "--mode", "ns-file", "--ns", "NS", "--m", "2"],
     "census takes no --n or --m in ns-file mode"),
    (["census", "--n", "5", "--m", "2", "--ns", "/nonexistent"],
     "census takes no --ns in concurrency-free mode"),
    (["closure", "--collection", "COL", "--n", "4", "--m", "2",
      "--members", "123"],
     "closure takes --collection or --n/--m/--members, not both"),
    (["closure", "--collection", "COL", "--members", "123"],
     "closure takes --collection or --n/--m/--members, not both")])
def test_options_the_mode_leaves_unread_are_refused(capsys, tmp_path,
                                                    ns_files, argv,
                                                    message):
    col = tmp_path / "col.json"
    col.write_text(json.dumps({"n": 4, "m": 2, "members": [[1, 2, 3]]}))
    argv = [{"NS": ns_files["four_lines"], "COL": str(col)}.get(a, a)
            for a in argv]
    code, _, err, cap = run(capsys, *argv)
    assert code == 1 and cap.out == ""
    assert err == {"error": {"type": "ArrangementError",
                             "message": message}}


def _outcome(argv):
    # exit code, stdout (a report without its timings) and stderr of main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    if text.startswith("{"):
        text = json.loads(text)
        text.pop("timings_ms")
    return code, text, err.getvalue()


def _dispatch_table(ns):
    # every minimal call, and the argv that argparse answers itself
    table = [[command] + [ns if a == "NS" else a for a in args]
             for command, args in _MINIMAL.items()]
    return table + [
        [], ["--version"], ["-h"], ["count"], ["count", "-h"],
        ["count", "--ns"], ["count", "--ns", ns, "--bogus"],
        ["count", "--ns", ns, "--version"], ["count", "--ns", ns, "junk"],
        ["count", "--ns", ns, "--format", "yaml"],
        ["count", "--n", ns], ["count", "--ns=" + ns, "--format=text"],
        ["census", "--mo", "ns-file", "--ns", ns, "--format", "csv"],
        ["--format", "text", "count", "--ns", ns], ["coun", "--ns", ns],
        ["bogus"], ["count", "--", "--ns", ns], ["gen", "--n", "x"],
        ["gen", "--n", "4", "--m", "2", "--seed", "3", "--seed", "4"]]


def test_dispatch_answers_as_the_full_parser_does(monkeypatch, ns_files):
    # main hands argv[1:] to the subcommand's own parser; with no
    # subparsers to look up it parses every argv with the top parser,
    # and the two give the same stdout, stderr and exit code
    table = _dispatch_table(ns_files["four_lines"])
    top = cli._build_parser()
    calls = []
    real = top.parse_args

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(top, "parse_args", counted)
    direct = [_outcome(argv) for argv in table]
    # the minimal calls skip it; an unknown command, an option before the
    # command and arguments left over reach it
    assert [args for args, in calls] == [
        argv for argv in table[len(_MINIMAL):]
        if argv[:1] not in [[c] for c in _MINIMAL]
        or argv[-1] in ("--bogus", "--version", "junk")]
    monkeypatch.setattr(top, "commands", {})
    assert [_outcome(argv) for argv in table] == direct
    assert [code for code, _, _ in direct[:len(_MINIMAL)]] == \
        [0] * len(_MINIMAL)
    assert {code for code, _, _ in direct[len(_MINIMAL):]} == {0, 2}


def test_main_reads_sys_argv(monkeypatch, ns_files):
    argv = ["count", "--ns", ns_files["four_lines"]]
    want = _outcome(argv)
    monkeypatch.setattr(sys, "argv", ["arrcensus"] + argv)
    assert _outcome(None) == want
    monkeypatch.setattr(sys, "argv", ["arrcensus", "count", "--bogus"])
    assert _outcome(None)[0] == 2

"""Command-line surface for the arrangement census toolkit.

Every subcommand wraps one library operation and emits a RunReport: the
command name, digests of its inputs, per-phase timings in milliseconds, the
result payload, the tool version, and the seed (null but for gen and
catalog-verify, the two commands that sample).  Payloads are deterministic
given inputs and seed; timings are not and live outside the payload.
Artifacts written with --out are the bare payload files: a normal system
(gen) or a catalog (chambers) can be fed back in, and the discriminantal
arrangement (disc) is written for reading only.  Input values become
numbers in exact_linalg: --b parts by parse_rational, files through the
library loaders; integer options by _integer.

A subcommand takes only the options it reads, and any other is a usage
error: --format on all, --max-subsets on all but closure, --seed on gen
and catalog-verify, --max-chambers on chambers and catalog-verify.
Where the options read depend on other options, a mix that names an
option left unread is a domain error: census takes --n and --m only in
concurrency-free mode and --ns only in ns-file mode, and closure takes
--collection or --n/--m/--members, not both.

Exit codes: 0 success, 1 domain error (JSON on stderr), 2 usage error.
"""

import argparse
import hashlib
import json
import random
import sys
import time
from functools import lru_cache
from math import comb

from . import __version__
from .affine_geometry import (are_isomorphic_trivial, region_census,
                              sign_vector, simplex_signature)
from .chambers import (DEFAULT_MAX_CHAMBERS, Classified, catalog_from_dict,
                       catalog_text, catalog_to_dict, classify_b,
                       enumerate_chambers, verify_catalog)
from .charpoly import (combinatorial_charpoly, iso_class_count,
                       whitney_charpoly, zaslavsky_regions)
from .concurrency import (SubsetCollection, base_collection,
                          collection_from_dict, collection_to_dict,
                          combinatorial_rank, concurrency_closure,
                          concurrency_orders, is_concurrency_free)
from .discriminantal import build, da_to_dict
from .errors import ArrangementError, NotGeneric, TooLarge
from .exact_linalg import _CANONICAL, parse_rational
from .normal_system import (Arrangement, arrangement_from_b, ns_from_dict,
                            ns_to_dict, random_normal_system)

DEFAULT_MAX_SUBSETS = 2 ** 22


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _load_json(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return json.loads(raw.decode("utf-8")), _digest(raw)


def _load_ns(path, max_subsets):
    # the subset universe is refused before validation builds its minors
    data, dig = _load_json(path)
    if (isinstance(data, dict) and isinstance(data.get("rows"), list)
            and type(data.get("m")) is int):
        _guard_subsets(len(data["rows"]), data["m"], max_subsets)
        _guard_minors(len(data["rows"]), data["m"], max_subsets)
    return ns_from_dict(data), dig


def _integer(text):
    """The type of every integer option: the 'p' of exact_linalg's
    grammar, ASCII digits after an optional minus sign.  int would also
    read '٤' (as 4), '+4', '4_0' and ' 4'; here they are usage errors,
    as 'x' is."""
    hit = _CANONICAL(text)
    if not hit or hit[2] is not None:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _parse_b(text):
    return tuple(parse_rational(part.strip(), position=i)
                 for i, part in enumerate(text.split(","), start=1))


def _parse_members(text):
    out = []
    for code in text.split(","):
        code = code.strip()
        if not (code.isascii() and code.isdigit()):
            raise ArrangementError("subset codes must be strings of 0-9",
                                   got=code)
        out.append(tuple(int(c) for c in code))
    return out


def _subset_codes(subsets):
    return [list(s) for s in subsets]


def _guard_subsets(n, m, limit):
    # a shape with n <= m or m < 1 is refused by the library, as BadShape
    if n > m >= 0 and comb(n, m + 1) > limit:
        raise TooLarge("subset universe exceeds --max-subsets",
                       count=comb(n, m + 1), limit=limit)


def _guard_minors(n, m, limit):
    # validation builds the minor table, one entry per k-subset of the
    # rows for each 1 <= k <= m (two sizes held at a time)
    if n > m >= 1:
        entries = sum(comb(n, k) for k in range(1, m + 1))
        if entries > limit:
            raise TooLarge("minor table entries exceed --max-subsets",
                           count=entries, limit=limit)


class _Timer:
    def __init__(self):
        self.marks = {}
        self._last = time.monotonic()

    def mark(self, phase):
        now = time.monotonic()
        self.marks[phase] = round((now - self._last) * 1000)
        self._last = now

    def report(self):
        out = dict(self.marks)
        out["total"] = sum(self.marks.values())
        return out


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            rows.extend(_flatten(payload[k], prefix + str(k) + "."))
    elif isinstance(payload, (list, tuple)):
        rows.append((prefix[:-1], json.dumps(payload)))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _emit(report, fmt, stream):
    if fmt == "json":
        stream.write(json.dumps(report, sort_keys=True) + "\n")
        return
    rows = _flatten(report["payload"])
    if fmt == "csv":
        # imported here: only --format csv reads it.  A value with a comma
        # (a list) is quoted; the writer would write None as "", so each
        # value goes as its str
        import csv
        out = csv.writer(stream, lineterminator="\n")
        out.writerow(("key", "value"))
        out.writerows((k, str(v)) for k, v in rows)
    else:
        width = max((len(k) for k, _ in rows), default=0)
        for k, v in rows:
            stream.write("%-*s  %s\n" % (width, k, v))


def _write_artifact(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------- commands


def cmd_gen(args, timer):
    _guard_minors(args.n, args.m, args.max_subsets)
    ns = random_normal_system(args.n, args.m, seed=args.seed,
                              bound=args.bound)
    timer.mark("compute")
    data = ns_to_dict(ns)
    if args.out:
        _write_artifact(args.out, data)
    return {"system": data, "rejections": ns.rejections}, {
        "n": args.n, "m": args.m, "bound": args.bound}


def cmd_disc(args, timer):
    ns, dig = _load_ns(args.ns, args.max_subsets)
    timer.mark("load")
    da = build(ns)
    timer.mark("compute")
    data = da_to_dict(da)
    if args.out:
        _write_artifact(args.out, data)
    return data, {"ns": dig}


def _charpoly_of(args, timer):
    # the --ns file loaded under the guards, its walls built, and their
    # characteristic polynomial; returns (ns, chi, digest)
    ns, dig = _load_ns(args.ns, args.max_subsets)
    timer.mark("load")
    chi = whitney_charpoly(build(ns))
    timer.mark("compute")
    return ns, chi, dig


def cmd_charpoly(args, timer):
    _, chi, dig = _charpoly_of(args, timer)
    return {"coefficients": list(chi.coefficients),
            "polynomial": chi.as_str(),
            "factored": chi.factored_str(),
            "method": args.method}, {"ns": dig}


def cmd_count(args, timer):
    _, chi, dig = _charpoly_of(args, timer)
    return {"coefficients": list(chi.coefficients),
            "cones": zaslavsky_regions(chi),
            "classes": iso_class_count(chi)}, {"ns": dig}


def cmd_chambers(args, timer):
    ns, dig = _load_ns(args.ns, args.max_subsets)
    timer.mark("load")
    catalog = enumerate_chambers(build(ns), max_chambers=args.max_chambers)
    timer.mark("compute")
    data = catalog_to_dict(catalog)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(catalog_text(data))
    return data, {"ns": dig}


def cmd_classify(args, timer):
    ns, dig = _load_ns(args.ns, args.max_subsets)
    b = _parse_b(args.b)
    digests = {"ns": dig, "b": args.b}
    catalog = None
    da = build(ns)
    if args.catalog:
        data, cdig = _load_json(args.catalog)
        catalog = catalog_from_dict(da, data)
        digests["catalog"] = cdig
    timer.mark("load")
    res = classify_b(da, b, catalog)
    timer.mark("compute")
    if isinstance(res, Classified):
        return {"signs": res.signs, "class": res.class_id,
                "on_wall": None}, digests
    return {"signs": None, "class": None,
            "on_wall": _subset_codes(res.subsets)}, digests


def cmd_check_cf(args, timer):
    ns, dig = _load_ns(args.ns, args.max_subsets)
    timer.mark("load")
    verdict = is_concurrency_free(ns)
    timer.mark("compute")
    witness = (None if verdict.witness is None
               else _subset_codes(verdict.witness))
    return {"free": verdict.free, "witness": witness}, {"ns": dig}


def cmd_closure(args, timer):
    digests = {}
    if args.collection:
        if (args.n, args.m, args.members) != (None, None, None):
            raise ArrangementError(
                "closure takes --collection or --n/--m/--members, not both")
        data, dig = _load_json(args.collection)
        col = collection_from_dict(data)
        digests["collection"] = dig
    else:
        if args.n is None or args.m is None or args.members is None:
            raise ArrangementError(
                "closure needs --collection or --n/--m/--members")
        col = SubsetCollection(args.n, args.m, _parse_members(args.members))
        digests["args"] = "%d,%d,%s" % (args.n, args.m, args.members)
    timer.mark("load")
    closed = concurrency_closure(col)
    orders = concurrency_orders(closed)
    base = base_collection(closed)
    timer.mark("compute")
    return {"closure": collection_to_dict(closed),
            "orders": [{"set": list(u), "order": k} for u, k in orders],
            "base": _subset_codes(base.sorted_members),
            "combinatorial_rank": combinatorial_rank(col)}, digests


def cmd_regions(args, timer):
    ns, dig = _load_ns(args.ns, args.max_subsets)
    arr = arrangement_from_b(ns, _parse_b(args.b))
    timer.mark("load")
    census = region_census(arr)
    timer.mark("compute")
    return census, {"ns": dig, "b": args.b}


def cmd_signature(args, timer):
    ns, dig = _load_ns(args.ns, args.max_subsets)
    arr = arrangement_from_b(ns, _parse_b(args.b))
    timer.mark("load")
    triples = sorted(simplex_signature(arr))
    timer.mark("compute")
    return {"triangles": _subset_codes(triples)}, {
        "ns": dig, "b": args.b}


def cmd_iso(args, timer):
    ns, dig = _load_ns(args.ns, args.max_subsets)
    a1 = arrangement_from_b(ns, _parse_b(args.b1))
    a2 = arrangement_from_b(ns, _parse_b(args.b2))
    timer.mark("load")
    verdict = are_isomorphic_trivial(a1, a2)
    timer.mark("compute")
    return {"isomorphic": verdict}, {"ns": dig, "b1": args.b1,
                                     "b2": args.b2}


def cmd_catalog_verify(args, timer):
    if args.pairs < 0:
        raise ArrangementError("--pairs must be a non-negative count",
                               got=args.pairs)
    ns, dig = _load_ns(args.ns, args.max_subsets)
    digests = {"ns": dig}
    da = build(ns)
    if args.catalog:
        data, cdig = _load_json(args.catalog)
        catalog = catalog_from_dict(da, data)
        digests["catalog"] = cdig
    else:
        catalog = enumerate_chambers(da, max_chambers=args.max_chambers)
    timer.mark("load")
    report = verify_catalog(da, catalog)
    # cross-validation: class-id equality must coincide with the oracle
    rng = random.Random(args.seed)
    k = len(catalog)
    pairs = ([(i, j) for i in range(k) for j in range(k)]
             if k * k <= args.pairs
             else [(rng.randrange(k), rng.randrange(k))
                   for _ in range(args.pairs)])
    # the sign vector of each sampled witness, made once (None on a
    # wall); two witnesses are trivially isomorphic iff their sign
    # vectors are equal or opposite (are_isomorphic_trivial)
    signs = {}
    for i in {k for pair in pairs for k in pair}:
        try:
            signs[i] = sign_vector(Arrangement(ns, catalog[i].witness))
        except NotGeneric:
            signs[i] = None
    mismatches = 0
    for i, j in pairs:
        si, sj = signs[i], signs[j]
        if si is None or sj is None:  # a witness on a wall is in no cone
            mismatches += 1
        elif (si == sj or si == [-s for s in sj]) != (
                catalog[i].class_id == catalog[j].class_id):
            mismatches += 1
    timer.mark("compute")
    checks = dict(report)
    ok = checks.pop("ok")
    payload = {
        "catalog": checks,
        "cross_validation": {"pairs": len(pairs),
                             "mismatches": mismatches},
        "ok": ok and mismatches == 0,
    }
    return payload, digests


def cmd_census(args, timer):
    digests = {"mode": args.mode}
    if args.mode == "concurrency-free":
        if args.n is None or args.m is None:
            raise ArrangementError("census needs --n and --m in "
                                   "concurrency-free mode")
        if args.ns is not None:
            raise ArrangementError("census takes no --ns in "
                                   "concurrency-free mode")
        _guard_subsets(args.n, args.m, args.max_subsets)
        chi = combinatorial_charpoly(args.n, args.m)
        timer.mark("compute")
        n, m = args.n, args.m
        digests["args"] = "%d,%d" % (n, m)
    else:
        if not args.ns:
            raise ArrangementError("census needs --ns in ns-file mode")
        if args.n is not None or args.m is not None:
            raise ArrangementError("census takes no --n or --m in ns-file "
                                   "mode")
        ns, chi, digests["ns"] = _charpoly_of(args, timer)
        n, m = ns.n, ns.m
    return {"n": n, "m": m,
            "chi": list(chi.coefficients),
            "cones": zaslavsky_regions(chi),
            "classes": iso_class_count(chi)}, digests


# ----------------------------------------------------------------- wiring


@lru_cache(maxsize=1)
def _build_parser():
    # built on the first call, then shared by every call of the process
    top = argparse.ArgumentParser(
        prog="arrcensus",
        description="Exact census of generic hyperplane arrangements "
                    "via discriminantal cones.")
    top.add_argument("--version", action="version", version=__version__)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv", "text"],
                     default="json")
    sized = argparse.ArgumentParser(add_help=False, parents=[fmt])
    sized.add_argument("--max-subsets", type=_integer,
                       default=DEFAULT_MAX_SUBSETS)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_integer, default=0)
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--max-chambers", type=_integer,
                        default=DEFAULT_MAX_CHAMBERS)
    sub = top.add_subparsers(dest="command", required=True)
    top.commands = sub.choices  # name -> subparser, for main

    p = sub.add_parser("gen", parents=[sized, seeded],
                       help="sample a random valid normal system")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--bound", type=_integer, default=9)
    p.add_argument("--out")

    p = sub.add_parser("disc", parents=[sized],
                       help="build the discriminantal arrangement")
    p.add_argument("--ns", required=True)
    p.add_argument("--out")

    p = sub.add_parser("charpoly", parents=[sized],
                       help="characteristic polynomial of the arrangement")
    p.add_argument("--ns", required=True)
    # one engine; the option stays so that "--method whitney" still parses
    p.add_argument("--method", choices=["whitney"], default="whitney")

    p = sub.add_parser("count", parents=[sized],
                       help="cone and class counts via the deletion recursion")
    p.add_argument("--ns", required=True)

    p = sub.add_parser("chambers", parents=[sized, capped],
                       help="enumerate all cones with exact witnesses")
    p.add_argument("--ns", required=True)
    p.add_argument("--out")

    p = sub.add_parser("classify", parents=[sized],
                       help="locate a constant vector b among the cones")
    p.add_argument("--ns", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--catalog")

    p = sub.add_parser("check-cf", parents=[sized],
                       help="decide concurrency freeness, with witness")
    p.add_argument("--ns", required=True)

    p = sub.add_parser("closure", parents=[fmt],
                       help="concurrency closure, orders, base, rank")
    p.add_argument("--collection")
    p.add_argument("--n", type=_integer)
    p.add_argument("--m", type=_integer)
    p.add_argument("--members")

    p = sub.add_parser("regions", parents=[sized],
                       help="count regions of the affine arrangement at b")
    p.add_argument("--ns", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("signature", parents=[sized],
                       help="triangle signature of a planar arrangement")
    p.add_argument("--ns", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("iso", parents=[sized],
                       help="test two b-vectors for trivial isomorphism")
    p.add_argument("--ns", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)

    p = sub.add_parser("catalog-verify", parents=[sized, seeded, capped],
                       help="verify a catalog and cross-validate classes")
    p.add_argument("--ns", required=True)
    p.add_argument("--catalog")
    p.add_argument("--pairs", type=_integer, default=50)

    p = sub.add_parser("census", parents=[sized],
                       help="one table row: chi, cones, classes")
    p.add_argument("--mode", choices=["concurrency-free", "ns-file"],
                   default="concurrency-free")
    p.add_argument("--n", type=_integer)
    p.add_argument("--m", type=_integer)
    p.add_argument("--ns")

    return top


def main(argv=None):
    top = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # argv[1:] goes straight to the subparser that top would hand it to;
    # top parses argv itself, for its errors, help and version, when
    # argv[0] names no command or the subparser leaves arguments over
    sub = top.commands.get(argv[0]) if argv else None
    args = None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if extra:
            args = None
        else:
            args.command = argv[0]
    if args is None:
        args = top.parse_args(argv)
    timer = _Timer()
    # looked up at call time, so a rebound cmd_* is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        payload, digests = command(args, timer)
    except ArrangementError as err:
        sys.stderr.write(json.dumps({"error": err.as_dict()},
                                    sort_keys=True) + "\n")
        return 1
    except (OSError, json.JSONDecodeError) as err:
        sys.stderr.write(json.dumps(
            {"error": {"type": type(err).__name__,
                       "message": str(err)}}) + "\n")
        return 1
    report = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "inputs": digests,
        "timings_ms": timer.report(),
        "payload": payload,
    }
    _emit(report, args.format, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

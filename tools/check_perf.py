#!/usr/bin/env python3
"""Validator and regression gate for bench/microbench JSON.

Two modes over the "gllc-hotpath-v1" schema (bench/hotpath.hh):

  * schema validation, for failing fast on malformed bench output:

        python3 tools/check_perf.py --schema BENCH_hotpath.json

  * regression gating, comparing a fresh run against the checked-in
    baseline:

        python3 tools/check_perf.py --baseline BENCH_hotpath.json \
            --current result.json [--fail-pct 15] [--warn-pct 5]

    The two reports must be comparable: same schema, same benchmark
    configuration (scale, access counts, repeats) and the same
    policy set — anything else exits 1 as incomparable rather than
    producing a meaningless percentage.  A policy whose accesses/sec
    dropped more than --fail-pct percent fails the gate; more than
    --warn-pct prints a warning.  Faster-than-baseline results are
    reported and always pass (re-baseline to lock them in; see
    README "Performance harness").

Exits 0 when every requested check passes, 1 otherwise.
"""

import argparse
import json
import sys

SCHEMA = "gllc-hotpath-v1"

CONFIG_FIELDS = (
    "scale",
    "synthetic_accesses",
    "real_frames",
    "repeats",
)

POLICY_NUMBER_FIELDS = (
    "total_accesses",
    "total_seconds",
    "accesses_per_sec",
    "p50_cell_ms",
    "p95_cell_ms",
    "misses",
)


def load(path, errors):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"{path}: {exc}")
        return None


def check_schema(path, doc, errors):
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level is not an object")
        return
    if doc.get("schema") != SCHEMA:
        errors.append(
            f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}"
        )
    config = doc.get("config")
    if not isinstance(config, dict):
        errors.append(f"{path}: \"config\" is not an object")
    else:
        for field in CONFIG_FIELDS:
            if field not in config:
                errors.append(f"{path}: config missing {field!r}")
    policies = doc.get("policies")
    if not isinstance(policies, list) or not policies:
        errors.append(f"{path}: \"policies\" is not a non-empty array")
        return
    seen = set()
    for i, p in enumerate(policies):
        where = f"{path}: policies[{i}]"
        if not isinstance(p, dict):
            errors.append(f"{where}: not an object")
            continue
        name = p.get("policy")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing policy name")
            continue
        if name in seen:
            errors.append(f"{where}: duplicate policy {name!r}")
        seen.add(name)
        for field in POLICY_NUMBER_FIELDS:
            value = p.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(
                    f"{where} ({name}): bad {field} {value!r}"
                )
        if isinstance(p.get("accesses_per_sec"), (int, float)):
            if p["accesses_per_sec"] <= 0:
                errors.append(
                    f"{where} ({name}): accesses_per_sec must be > 0"
                )


def check_comparable(baseline, current, base_doc, cur_doc, errors):
    base_cfg = base_doc.get("config", {})
    cur_cfg = cur_doc.get("config", {})
    for field in CONFIG_FIELDS:
        if base_cfg.get(field) != cur_cfg.get(field):
            errors.append(
                f"incomparable: config.{field} differs "
                f"({baseline}: {base_cfg.get(field)!r}, "
                f"{current}: {cur_cfg.get(field)!r})"
            )
    base_names = [p.get("policy") for p in base_doc.get("policies", [])]
    cur_names = [p.get("policy") for p in cur_doc.get("policies", [])]
    if sorted(base_names) != sorted(cur_names):
        errors.append(
            f"incomparable: policy sets differ "
            f"({baseline}: {sorted(base_names)}, "
            f"{current}: {sorted(cur_names)})"
        )


def compare(base_doc, cur_doc, fail_pct, warn_pct, errors):
    base = {p["policy"]: p for p in base_doc["policies"]}
    warned = 0
    for p in cur_doc["policies"]:
        name = p["policy"]
        base_rate = base[name]["accesses_per_sec"]
        cur_rate = p["accesses_per_sec"]
        delta_pct = (cur_rate - base_rate) / base_rate * 100.0
        line = (
            f"{name:<14} {base_rate / 1e6:8.2f} -> "
            f"{cur_rate / 1e6:8.2f} Macc/s  {delta_pct:+6.1f}%"
        )
        if delta_pct < -fail_pct:
            errors.append(
                f"{name}: accesses/sec regressed {-delta_pct:.1f}% "
                f"(limit {fail_pct}%)"
            )
            print(f"FAIL  {line}")
        elif delta_pct < -warn_pct:
            warned += 1
            print(f"WARN  {line}")
        else:
            print(f"  ok  {line}")
    if warned:
        print(
            f"check_perf: {warned} polic{'y' if warned == 1 else 'ies'}"
            f" slowed more than {warn_pct}% (within the {fail_pct}% gate)"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schema", metavar="FILE",
                        help="validate FILE against the hotpath schema")
    parser.add_argument("--baseline", metavar="FILE",
                        help="checked-in baseline JSON")
    parser.add_argument("--current", metavar="FILE",
                        help="freshly produced JSON to gate")
    parser.add_argument("--fail-pct", type=float, default=15.0,
                        help="regression percentage that fails (default"
                        " 15)")
    parser.add_argument("--warn-pct", type=float, default=5.0,
                        help="regression percentage that warns (default"
                        " 5)")
    args = parser.parse_args()
    if bool(args.baseline) != bool(args.current):
        parser.error("--baseline and --current go together")
    if not args.schema and not args.baseline:
        parser.error("give --schema and/or --baseline/--current")

    errors = []
    if args.schema:
        doc = load(args.schema, errors)
        if doc is not None:
            check_schema(args.schema, doc, errors)

    if args.baseline and not errors:
        base_doc = load(args.baseline, errors)
        cur_doc = load(args.current, errors)
        if base_doc is not None and cur_doc is not None:
            check_schema(args.baseline, base_doc, errors)
            check_schema(args.current, cur_doc, errors)
            if not errors:
                check_comparable(args.baseline, args.current,
                                 base_doc, cur_doc, errors)
            if not errors:
                compare(base_doc, cur_doc, args.fail_pct,
                        args.warn_pct, errors)

    for error in errors:
        print(error)
    if errors:
        print(f"check_perf: {len(errors)} finding(s)")
        return 1
    print("check_perf: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate bench --json output against ci/bench_schema.json.

Implements the subset of JSON Schema the schema files use — type,
enum, required, properties, items, minimum, minItems — with nothing beyond
the python3 standard library, so CI needs no pip installs.

Usage:
    scripts/validate_bench_json.py ci/bench_schema.json out/*.json
    scripts/validate_bench_json.py --jsonl ci/journal_schema.json \\
        out/sweep.jsonl

With --jsonl each non-empty line of every input file is parsed and
validated independently (the run-journal format, one record per line).
A torn final line — the expected residue of a killed sweep — fails
here; CI validates journals the resume path has already cleaned, or
accepts a known-torn tail by validating all but the last line.
"""

import json
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "number": (int, float),
    "integer": int,
}


def _check_type(value, expected, path, errors):
    py = _TYPES[expected]
    # bool is an int subclass in python; keep the JSON types distinct.
    if isinstance(value, bool) and expected in ("number", "integer"):
        errors.append(f"{path}: expected {expected}, got boolean")
        return False
    if not isinstance(value, py):
        errors.append(
            f"{path}: expected {expected}, got {type(value).__name__}")
        return False
    if expected == "integer" and isinstance(value, float):
        errors.append(f"{path}: expected integer, got float")
        return False
    return True


def validate(value, schema, path, errors):
    expected = schema.get("type")
    if expected and not _check_type(value, expected, path, errors):
        return

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")

    minimum = schema.get("minimum")
    if minimum is not None and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < minimum:
        errors.append(f"{path}: {value} < minimum {minimum}")

    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required member '{req}'")
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors)

    if isinstance(value, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(value) < min_items:
            errors.append(
                f"{path}: {len(value)} items < minItems {min_items}")
        items = schema.get("items")
        if items:
            for i, element in enumerate(value):
                validate(element, items, f"{path}[{i}]", errors)


def _validate_jsonl(path, schema):
    """Validate every non-empty line of a JSONL file. Returns errors."""
    errors = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"line {lineno}: not JSON: {e}")
                continue
            validate(doc, schema, f"line {lineno}", errors)
    return errors


def main(argv):
    argv = list(argv)
    jsonl = "--jsonl" in argv
    if jsonl:
        argv.remove("--jsonl")
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    with open(argv[1]) as f:
        schema = json.load(f)

    failed = False
    for path in argv[2:]:
        if jsonl:
            try:
                errors = _validate_jsonl(path, schema)
            except OSError as e:
                print(f"{path}: FAIL: {e}")
                failed = True
                continue
            if errors:
                failed = True
                print(f"{path}: FAIL ({len(errors)} problem(s))")
                for e in errors[:20]:
                    print(f"  {e}")
                if len(errors) > 20:
                    print(f"  ... and {len(errors) - 20} more")
            else:
                with open(path) as f:
                    records = sum(1 for l in f if l.strip())
                print(f"{path}: OK ({records} record(s))")
            continue

        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: FAIL: {e}")
            failed = True
            continue

        errors = []
        validate(doc, schema, "$", errors)
        if errors:
            failed = True
            print(f"{path}: FAIL ({len(errors)} problem(s))")
            for e in errors[:20]:
                print(f"  {e}")
            if len(errors) > 20:
                print(f"  ... and {len(errors) - 20} more")
        elif "failures" in doc:
            # A failure manifest, not a bench dump.
            print(f"{path}: OK ({doc.get('failure_policy', '?')} policy, "
                  f"{len(doc['failures'])} failure(s))")
        else:
            runs = doc.get("runs", [])
            # Note how many runs carry host-profiler phases so a
            # --profile smoke run is visible in the CI log.
            profiled = sum(
                1 for r in runs if r.get("host", {}).get("prof_phases"))
            note = f", {profiled} profiled" if profiled else ""
            print(f"{path}: OK ({doc.get('bench', '?')}, "
                  f"{len(runs)} runs{note})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

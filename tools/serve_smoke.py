#!/usr/bin/env python3
"""End-to-end smoke test for `sierra serve` (the CI serve-smoke job).

Exercises what the unit tests cannot: the real binary, over real
stdio, across two daemon *processes* sharing one on-disk store.

  1. Process A (fresh store): submit an app -> cold, everything
     computed; submit it again -> warm in-process.
  2. Process B (same store dir): submit the same bundle -> warm
     across processes (the disk store faults the artifacts in), and
     the report is byte-identical to process A's cold report.
  3. Process B: submit a one-method nop edit -> exactly one method
     changed, at least one harness artifact still reuses.
  4. The store directory holds exactly VERSION and the four kinds
     (deps, harness, methods, shape), with no *.tmp file left.

Exit 0 on success; prints the failing check and exits 1 otherwise.
Usage: tools/serve_smoke.py [path/to/sierra]
"""

import json
import os
import subprocess
import sys
import tempfile

SIERRA = sys.argv[1] if len(sys.argv) > 1 else "./build/tools/sierra"
APP = "OpenSudoku"

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def session(store, requests):
    """Run one `sierra serve --store` process over stdio; return the
    parsed response for each request."""
    lines = [json.dumps(r, separators=(",", ":")) for r in requests]
    proc = subprocess.run(
        [SIERRA, "serve", "--store", store],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    check(proc.returncode == 0, "daemon exited cleanly")
    check(len(out) == len(requests), "one response per request")
    return out


def store_info(response):
    return response["result"]["store"]


def main():
    dump = subprocess.run(
        [SIERRA, "dump", APP], capture_output=True, text=True, check=True
    ).stdout

    # A benign edit: retarget one return-void to a nop + return-void.
    needle = "@6: return-void"
    assert needle in dump, "corpus layout changed; pick a new edit site"
    edited = dump.replace(needle, "@6: nop\n        @7: return-void", 1)

    with tempfile.TemporaryDirectory(prefix="sierra-store-") as store:
        # --- process A: cold, then warm in-process ---
        a = session(
            store,
            [
                {"id": 1, "kind": "analyze", "app": dump},
                {"id": 2, "kind": "analyze", "app": dump},
                {"id": 3, "kind": "shutdown"},
            ],
        )
        cold, warm = store_info(a[0]), store_info(a[1])
        cold_report = a[0]["result"]["report"]
        check(cold["firstSubmission"], "process A first submission is cold")
        check(cold["harnessesComputed"] > 0, "cold computes harnesses")
        check(warm["harnessesComputed"] == 0, "in-process warm computes nothing")
        check(warm["methodsChanged"] == 0, "in-process warm changes no methods")
        check(
            a[1]["result"]["report"] == cold_report,
            "in-process warm report is byte-identical",
        )

        # --- process B: same store, warm across processes ---
        b = session(
            store,
            [
                {"id": 1, "kind": "analyze", "app": dump},
                {"id": 2, "kind": "analyze", "app": edited},
                {"id": 3, "kind": "stats"},
                {"id": 4, "kind": "shutdown"},
            ],
        )
        xwarm, edit = store_info(b[0]), store_info(b[1])
        check(
            not xwarm["firstSubmission"],
            "process B sees process A's submission",
        )
        check(
            xwarm["harnessesComputed"] == 0 and xwarm["harnessesReused"] > 0,
            "cross-process warm reuses every harness artifact",
        )
        check(xwarm["methodsChanged"] == 0, "cross-process warm changes no methods")
        check(
            b[0]["result"]["report"] == cold_report,
            "cross-process warm report is byte-identical to cold",
        )
        check(edit["methodsChanged"] == 1, "nop edit dirties exactly one method")
        check(edit["harnessesReused"] > 0, "edit still reuses untouched harnesses")
        counters = b[2]["result"]["counters"]
        check(
            counters.get("store.harness_hits", 0) > 0,
            "store.harness_hits counter is live",
        )
        check(
            b[2]["result"]["store"]["diskReads"] > 0,
            "process B faulted artifacts in from disk",
        )

        # --- the store holds only the kinds a submission reads back ---
        top = sorted(os.listdir(store))
        check(
            top == ["VERSION", "deps", "harness", "methods", "shape"],
            "store layout is VERSION + deps/harness/methods/shape: %s" % top,
        )
        tmps = [
            os.path.join(d, f)
            for d, _, files in os.walk(store)
            for f in files
            if f.endswith(".tmp")
        ]
        check(not tmps, "no .tmp file left in the store: %s" % tmps)

    if failures:
        print(f"\n{len(failures)} serve-smoke check(s) failed")
        return 1
    print("\nserve-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

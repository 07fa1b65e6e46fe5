"""Rewrite the reference digests in perfbench/expect.json.

    python3 perfbench/record_reference.py

Runs every workload's reference pass (weights of seed 0) and its CLI
child once, checks each output against the pins, including the
vertices_oracle comparison on cell-oracle, and stores the sha256 of every
emitted document.  Refuses to write when any check fails.  zonocert's
output is meant to stay byte-identical, so a digest should only change
with a deliberate change of the output format.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import tracing
import workloads


def main() -> int:
    expect = run.load_expect()
    zc = run.import_zonocert()
    tmp = run.OUT / f"record-{os.getpid()}"
    run.OUT.mkdir(exist_ok=True)
    tmp.mkdir()
    failed = False
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(zc, tmp, 0)
            pins = expect["pins"][name]
            digests = {}
            for inst in wl.reference_pass():
                out = wl.run(inst, tracing.NullTracer())
                bad = wl.check(inst, out, pins, oracle=True)
                if bad:
                    failed = True
                    print(f"{name}/{inst.name}: {'; '.join(bad)}")
                for doc, text in wl.documents(inst, out).items():
                    digests[f"{inst.name}/{doc}"] = run.sha256(text)
            _, code, stdout = run.run_child(
                ["-m", "zonocert.cli", *wl.child_argv()])
            if code != 0:
                failed = True
                print(f"{name} child exit code {code}")
            digests["child"] = run.sha256(stdout)
            expect["digests"][name] = digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if failed:
        print("checks failed; expect.json left unchanged")
        return 1
    (run.HERE / "expect.json").write_text(json.dumps(expect, indent=1) + "\n",
                                          encoding="utf-8")
    print("expect.json digests rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())

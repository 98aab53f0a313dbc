"""Regenerate perfbench/reference.json from the current program.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.  Every
pinned config is verified once at the reference seed with `--out`; the
reference keeps the config digests, the row counts and worst margin that
verify prints, the margins and MC rows of the report, and the sha256 of the
three report files.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads as wl


def main() -> int:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    reference = {"reference_seed": wl.REFERENCE_SEED, "configs": {},
                 "invocations": {}}
    try:
        for invocations in wl.WORKLOADS.values():
            for inv in invocations:
                config = wl.CONFIG_DIR / inv.config
                out = run.WORK / config.stem
                proc = run.run_process(
                    [sys.executable, "-m", "liyau", "verify", "--config",
                     str(config), "--seed", str(wl.REFERENCE_SEED),
                     "--out", str(out)], run.WORK / "verify.log",
                    time.perf_counter() + run.RUN_LIMIT_S)
                summary = wl.parse_summary(proc.output)
                if proc.exit_code != 0 or summary is None:
                    print(proc.output, file=sys.stderr)
                    return 1
                reference["configs"][inv.config] = wl.sha256(config)
                reference["invocations"][inv.config] = dict(
                    bound_rows=summary[0], mc_rows=summary[1],
                    worst_margin=summary[2], **wl.read_tables(out),
                    sha256={n: wl.sha256(out / n) for n in wl.REPORT_FILES})
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

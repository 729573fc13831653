"""Regenerate cli_pins.json: the sha256 of the stdout of every CLI task in
the cli_ext catalog, as the current source prints it.

    python3 bench/pin_cli.py

Run it only when a change is meant to alter report bytes.  A task whose exit
code differs from the one its construction implies is not pinned: the
script stops with an error instead.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    lib = run.load_package()
    catalog = workloads.cli_catalog()
    pins = {}
    with run.scratch_dir("pin") as scratch:
        path = scratch / "task.germ"
        for key, spec in catalog.items():
            argv = list(spec["argv"])
            if spec["germ"] is not None:
                path.write_text(spec["germ"], encoding="utf-8")
                argv[1] = str(path)
            code, stdout, stderr = workloads.run_cli(lib.cli.main, argv)
            if code != spec["exit"]:
                print(f"{key}: exit {code}, expected {spec['exit']}: {stderr}", file=sys.stderr)
                return 1
            pins[key] = workloads.stdout_digest(stdout)
    workloads.PINS_FILE.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"pinned {len(pins)} tasks to {workloads.PINS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

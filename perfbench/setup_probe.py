"""Set up the first job of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR JOB_ARGV_JSON

Imports ``risant.cli``, parses the job's arguments, resolves its scenario
and builds the antenna assembly, then prints one JSON line with the import
time.  The parent times this process from start to that line (``setup_s``).
"""

import json
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
import risant.cli as cli  # noqa: E402

import_s = perf_counter() - start
args = cli.build_parser().parse_args(json.loads(sys.argv[2]))
cli.load_scenario(args.scenario, args.overrides).build_assembly()
print(json.dumps({"import_s": import_s}), flush=True)

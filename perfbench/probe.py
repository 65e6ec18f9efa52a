"""Set-up probe: a fresh process that does what a CLI invocation does before
its first experiment starts (interpreter start, imports, config resolution),
then prints `ready` and exits. run.py times spawn -> `ready`.

Usage: python3 perfbench/probe.py '<JSON list of argv lists>'
with PYTHONPATH pointing at the checkout's src.
"""

import json
import sys

import smoothconvex.cli as cli

for argv in json.loads(sys.argv[1]):
    overrides = dict(arg[2:].split("=", 1) for arg in argv[2:]
                     if arg.startswith("--") and "=" in arg)
    cli.resolve_params(argv[1], overrides)
print("ready", flush=True)

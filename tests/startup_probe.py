"""List what one ``bellforge`` request loads.

    PYTHONPATH=src python -S tests/startup_probe.py seq p --max 1

runs the package's ``__main__`` on the arguments, as ``python -m bellforge``
would, then writes to stderr one line for each module that the run added to
``sys.modules``, sorted; the line of a ``bellforge`` module also gives the
line count of its source, which the request compiles when no bytecode cache
is written.  ``-S`` keeps the ``site`` directory's own imports (on some hosts
``threading``, ``re`` or ``typing``) from hiding a module that the request
loads.  The exit code is the request's."""

import runpy
import sys

before = set(sys.modules)
sys.argv = ["bellforge", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("bellforge", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
for name in sorted(set(sys.modules) - before):
    if name.startswith("bellforge"):
        with open(sys.modules[name].__file__, encoding="utf-8") as source:
            name += f" {len(source.readlines())}"
    sys.stderr.write(name + "\n")
sys.exit(code)

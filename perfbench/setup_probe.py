"""One fresh-interpreter set-up: import ``fractrunc.cli``, then finish the
workload's warm-up item.  Prints ``{"import_s": ...}``; the caller times the
whole process.

    python3 perfbench/setup_probe.py <workload>
"""

import json
import os
import sys
import time
import warnings

start = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
warnings.simplefilter("ignore")

import fractrunc.cli  # noqa: E402,F401  the import being measured

import_s = time.perf_counter() - start

import decks  # noqa: E402

item = decks.warmup_item(sys.argv[1])
item.check(item.call())
print(json.dumps({"import_s": import_s}))

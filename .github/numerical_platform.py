"""Print the numerical platform as a Markdown section: numpy's version,
the BLAS library, its version and thread count, and the CPU model.

Training bytes and criterion 9's AP depend on the BLAS kernel and its
thread count, so CI reports them beside the tests. perfbench/ is only read.

    python .github/numerical_platform.py >> "$GITHUB_STEP_SUMMARY"
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from run import blas_info  # noqa: E402

blas = blas_info()
cpu = next((ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo")
            if ln.startswith("model name")), None)
print("### Numerical platform")
print(f"numpy {np.__version__}; BLAS {blas['name']} {blas['version']}, "
      f"{blas['threads']} threads; CPU {cpu}")

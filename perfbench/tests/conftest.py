import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

# same single-threaded BLAS as the benchmark's own processes
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

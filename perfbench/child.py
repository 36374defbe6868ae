"""Run one otoclab CLI command in a fresh interpreter and record its timings.

    python3 perfbench/child.py RESULT_JSON MODE [CLI ARGUMENT ...]

Run from the root of an otoclab checkout; the package is imported from its
``src/`` directory.  MODE is one of

``import``  stop once ``otoclab.cli`` is imported (a set-up sample);
``env``     the same, then describe the machine and the numerical libraries;
``run``     call ``otoclab.cli.main`` with the CLI arguments;
``trace``   the same, with every public function of the traced modules
            wrapped in a span at each place it is looked up.

Times are CLOCK_MONOTONIC seconds, so the parent can subtract the moment it
spawned this interpreter.  Spans stay in memory and RESULT_JSON is written
once, when the command has ended.  A forked sweep worker writes its own spans
to ``RESULT_JSON.worker-<pid>-<n>.json`` each time its outermost span ends.
"""

# Only what the clock needs is imported before otoclab, so that the set-up
# time measures the package's own import; the rest is imported where used.
import os
import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Modules whose public functions become spans.  phase_space has no public
# function on a hot path: its diagonal gathers count inside the dephasing.
TRACED_MODULES = ("maps", "coarse_graining", "otoc", "classical", "resonances", "cli")


class Tracer:
    """Call spans ``[name, start, end, parent index]`` of one process."""

    def __init__(self, result_path):
        self.result_path = result_path
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.in_worker = False
        self.flushes = 0

    def wrap(self, name, fn):
        import functools

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                # first call in a forked worker: the spans copied from the
                # parent belong to the parent, so start an empty record
                self.pid, self.spans, self.stack = os.getpid(), [], []
                self.in_worker, self.flushes = True, 0
            index = len(self.spans)
            self.spans.append([name, _now(), 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = _now()
                if self.in_worker and not self.stack:
                    self._flush_worker()
        return traced

    def _flush_worker(self):
        import json

        path = f"{self.result_path}.worker-{self.pid}-{self.flushes}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        self.spans = []
        self.flushes += 1


def install_spans(tracer):
    """Rebind each public otoclab function in every traced module's namespace.

    Rebinding where the name is looked up catches calls through names
    imported with ``from .maps import heisenberg_conjugate`` as well as
    module-attribute calls such as ``coarse_graining.apply_dephasing_chord``.
    """
    import importlib
    import inspect

    modules = [importlib.import_module(f"otoclab.{short}") for short in TRACED_MODULES]
    public = {}
    for short, module in zip(TRACED_MODULES, modules):
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                public[fn] = f"{short}.{name}"
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in public:
                setattr(module, attr, tracer.wrap(public[value], value))


def _cache_sizes():
    import glob

    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model():
    import platform

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads(numpy):
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    """Machine, library versions and thread settings the timings depend on."""
    import importlib.util
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pocketfft = importlib.util.find_spec("numpy.fft._pocketfft_umath") is not None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy_blas_threads": _openblas_threads(numpy),
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "fft_backend": "numpy.fft pocketfft" if pocketfft else "numpy.fft",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main():
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import otoclab.cli

    t_imported = _now()
    if not os.path.abspath(otoclab.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"otoclab was imported from {otoclab.cli.__file__}, not from {src}")
    result = {"t_imported": t_imported}
    rc = 0
    if mode == "env":
        result["env"] = environment()
    elif mode in ("run", "trace"):
        tracer = Tracer(result_path)
        if mode == "trace":
            install_spans(tracer)
        t_main = _now()
        rc = otoclab.cli.main(argv)
        result["t_main"] = [t_main, _now()]
        result["rc"] = rc
        result["spans"] = tracer.spans
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    import json

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

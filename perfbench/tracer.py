"""Run the spechtmod CLI with spans recorded at module boundaries.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/tracer.py SPANS_PATH CLI_ARG...

The functions in ``TARGETS`` are wrapped in every loaded ``spechtmod`` module
that binds them, so a call made through ``from .fock import llt_canonical`` is
traced as well as one made inside ``fock``.  Each call records a span: its
name, start, end, parent span and, where the result has a natural size, that
size.  Spans stay in memory and are written to SPANS_PATH when the command
returns; stdout is left to the CLI, so the report bytes are unchanged.  A
target missing from the program is listed in the file header instead of
failing the run.

SPANS_PATH holds one JSON header line followed by the five arrays of the
header's ``arrays`` field, each ``count`` items long, in native byte order.
"""

import array
import functools
import itertools
import json
import sys
import time


def _nonzeros(matrix) -> int:
    return sum(map(bool, itertools.chain.from_iterable(matrix)))


# (module, function, size of its result or None)
TARGETS = (
    ("fock", "first_approximation", None),
    ("fock", "llt_canonical", lambda table: len(table.order)),
    ("fock", "_assert_table_invariants", None),
    ("fock", "nmat_at_one", _nonzeros),
    ("fock", "invert_unitriangular", None),
    ("tableaux", "ladder_class_of_shape", len),
    ("seminormal", "phi_action", None),
    ("seminormal", "act_by_word", None),
    ("seminormal", "inner_product", None),
    ("ranks", "phi_chain_basis", len),
    ("ranks", "ladder_symmetrize", len),
    ("ranks", "gram_matrix", lambda gram: len(gram) ** 2),
    ("ranks", "modp_rank", lambda result: result[1]),
    ("ranks", "gram_report", None),
    ("verify", "m_matrix", None),
    ("verify", "conjecture_check", lambda report: len(report.checks)),
    ("verify", "gram_oracle_dimD", None),
    ("cli", "_cmd_fock", None),
    ("cli", "_cmd_verify", None),
    ("cli", "_cmd_oracle", None),
)

ARRAYS = (("name", "H"), ("parent", "l"), ("start", "d"), ("end", "d"),
          ("size", "q"))


class Recorder:
    """Spans in parallel arrays; ``size`` is -1 where none was measured."""

    def __init__(self):
        self.names = []
        self.cols = {field: array.array(code) for field, code in ARRAYS}
        self.stack = [-1]

    def wrap(self, name: str, fn, size):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents = self.cols["name"], self.cols["parent"]
        starts, ends, sizes = (self.cols["start"], self.cols["end"],
                               self.cols["size"])
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            sizes.append(-1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if size is not None:
                try:
                    sizes[span] = size(result)
                except (TypeError, AttributeError, IndexError):
                    pass    # the result changed shape: its count is absent
            return result

        return traced

    def write(self, path: str, missing):
        header = {"names": self.names, "missing": missing,
                  "count": len(self.cols["name"]),
                  "arrays": [[field, code] for field, code in ARRAYS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _code in ARRAYS:
                self.cols[field].tofile(fh)


def install(recorder: Recorder) -> list:
    """Wrap every target in each spechtmod module; return the missing ones."""
    import spechtmod.cli  # noqa: F401  (loads every module of the package)
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "spechtmod" or key.startswith("spechtmod.")]
    missing = []
    for module, func, size in TARGETS:
        home = sys.modules.get(f"spechtmod.{module}")
        original = getattr(home, func, None)
        if original is None:
            missing.append(f"{module}.{func}")
            continue
        traced = recorder.wrap(f"{module}.{func}", original, size)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, traced)
    return missing


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    missing = install(recorder)
    try:
        return sys.modules["spechtmod.cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(spans_path, missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

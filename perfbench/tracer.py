"""Outside-in tracer for weilcoh: spans around each layer's public functions.

The tracer never edits the package.  It replaces each target function (or
method) by a wrapper in every weilcoh namespace that bound the original
object, so that `from .fock import diff` in `spectral` is traced exactly
like a call to `fock.diff`.  Each wrapper records a span: its call count,
its inclusive time (outermost activation only) and its self time, which is
the span's duration minus the time covered by the spans it caused.  The
tracer's own bookkeeping after a call (counters, hooks) is charged to no
span, so it shows up in `unattributed`.
"""

import importlib
import sys
from time import perf_counter

_MISSING = object()


class Stat:
    """Totals for one traced function."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        # per-target work counters, filled by the hooks below
        self.out_terms = 0
        self.vectors = 0
        self.in_entries = 0
        self.out_entries = 0
        self.useful = 0
        self.cols = 0
        self.max_coeff_bits = 0

    @property
    def useful_ratio(self):
        """Share of calls that returned a true value (raised the rank)."""
        return self.useful / self.calls if self.calls else 0.0


def _diff_hook(stat, args, cochain):
    stat.out_terms += sum(len(p.terms) for p in cochain.parts.values())


def _family_hook(stat, args, families):
    stat.vectors += sum(len(v) for v in families.values())


def _reduce_hook(stat, args, residual):
    stat.in_entries += len(args[1])
    stat.out_entries += len(residual)
    if residual:
        bits = max(abs(v) for v in residual.values()).bit_length()
        if bits > stat.max_coeff_bits:
            stat.max_coeff_bits = bits


def _add_row_hook(stat, args, raised_rank):
    stat.useful += bool(raised_rank)


def _kernel_hook(stat, args, basis):
    stat.cols += args[0].cols


# span name -> (defining module, attribute path, post-call hook)
TARGETS = {
    "cli.main": ("weilcoh.cli", "main", None),
    "fock.diff": ("weilcoh.fock", "diff", _diff_hook),
    "fock.to_row": ("weilcoh.fock", "Cochain.to_row", None),
    "fock.invariant_family": ("weilcoh.fock", "invariant_family",
                              _family_hook),
    "fock.pm_basis_vectors": ("weilcoh.fock", "pm_basis_vectors", None),
    "fock.direct_cohomology_dims": ("weilcoh.fock",
                                    "direct_cohomology_dims", None),
    "polyring.mul": ("weilcoh.polyring", "Polynomial.__mul__", None),
    "polyring.partial": ("weilcoh.polyring", "Polynomial.partial", None),
    "polyring.sk_evaluate": ("weilcoh.polyring", "sk_evaluate", None),
    "linalg.add_row": ("weilcoh.linalg", "Eliminator.add_row",
                       _add_row_hook),
    "linalg.reduce": ("weilcoh.linalg", "Eliminator.reduce", _reduce_hook),
    "linalg.kernel_basis": ("weilcoh.linalg", "kernel_basis", _kernel_hook),
    "linalg.span_intersect_window": ("weilcoh.linalg",
                                     "span_intersect_window", None),
    "spectral.computer_init": ("weilcoh.spectral",
                               "SpectralComputer.__init__", None),
    "spectral.page": ("weilcoh.spectral", "SpectralComputer.page", None),
    "spectral.einf_and_converge": ("weilcoh.spectral", "einf_and_converge",
                                   None),
    "spectral.e1_dims": ("weilcoh.spectral", "e1_dims", None),
    "koszul.regular_sequence_check": ("weilcoh.koszul",
                                      "regular_sequence_check", None),
    "koszul.ideal_quotient_dims": ("weilcoh.koszul", "ideal_quotient_dims",
                                   None),
}


# per-layer metrics, named <span>.<field>; trace.* are added by the
# harness, which owns the plain and traced wall times they compare
LAYER_METRICS = (
    "fock.diff.calls", "fock.diff.self_s", "fock.diff.incl_s",
    "fock.diff.out_terms",
    "fock.to_row.calls", "fock.to_row.self_s",
    "fock.invariant_family.calls", "fock.invariant_family.incl_s",
    "fock.invariant_family.vectors",
    "fock.pm_basis_vectors.calls", "fock.pm_basis_vectors.self_s",
    "fock.pm_basis_vectors.incl_s",
    "fock.direct_cohomology_dims.calls",
    "fock.direct_cohomology_dims.self_s",
    "polyring.mul.calls", "polyring.mul.self_s",
    "polyring.partial.calls", "polyring.partial.self_s",
    "polyring.sk_evaluate.calls", "polyring.sk_evaluate.self_s",
    "polyring.sk_evaluate.incl_s",
    "linalg.reduce.calls", "linalg.reduce.self_s",
    "linalg.reduce.in_entries", "linalg.reduce.out_entries",
    "linalg.add_row.calls", "linalg.add_row.useful_ratio",
    "linalg.max_coeff_bits",
    "linalg.kernel_basis.calls", "linalg.kernel_basis.self_s",
    "linalg.kernel_basis.cols",
    "linalg.span_intersect_window.calls",
    "linalg.span_intersect_window.self_s",
    "linalg.span_intersect_window.incl_s",
    "spectral.computer_init.incl_s",
    "spectral.page.calls", "spectral.page.self_s", "spectral.page.incl_s",
    "spectral.einf_and_converge.self_s",
    "spectral.e1_dims.self_s",
    "koszul.regular_sequence_check.self_s",
    "koszul.regular_sequence_check.incl_s",
    "koszul.ideal_quotient_dims.self_s",
    "koszul.ideal_quotient_dims.incl_s",
    "cli.main.self_s",
)
# the largest residual coefficient is a property of the whole layer
_ALIASES = {"linalg.max_coeff_bits": "linalg.reduce.max_coeff_bits"}
UNITS = {
    "calls": "count", "self_s": "s", "incl_s": "s", "out_terms": "count",
    "vectors": "count", "in_entries": "count", "out_entries": "count",
    "cols": "count", "useful_ratio": "ratio", "max_coeff_bits": "bits",
    "overhead_s": "s", "unattributed_s": "s",
}


def unit_of(metric):
    return UNITS[metric.rsplit(".", 1)[1]]


# the units whose values are work counts: they must repeat exactly
COUNT_UNITS = ("count", "ratio", "bits")


def _resolve(module, path):
    """The object at a dotted attribute path, or None if it is gone."""
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Installs the wrappers; `uninstall` puts every original back."""

    def __init__(self):
        self.stats = {name: Stat() for name in TARGETS}
        self._stack = [0.0]
        self._patched = []    # (owner, attribute, original)
        self._originals = {}  # id(original) -> original

    def _wrap(self, fn, stat, hook):
        stack = self._stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            t0 = clock()
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if not stat.depth:
                    stat.incl_s += dt
                if hook is not None and result is not _MISSING:
                    hook(stat, args, result)
                stack[-1] += dt + (clock() - t1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _namespaces(self):
        """Module dicts and class dicts of every loaded weilcoh module."""
        for modname, mod in sorted(sys.modules.items()):
            if modname != "weilcoh" and not modname.startswith("weilcoh."):
                continue
            yield mod, vars(mod)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and \
                        value.__module__ == modname:
                    yield value, vars(value)

    def install(self):
        """Wrap every target in every namespace that binds it.

        Returns the (namespace, attribute) pairs that were replaced and
        the spans whose target no longer exists (their metrics stay 0)."""
        wrappers = {}
        missing = []
        for span, (module, path, hook) in TARGETS.items():
            orig = _resolve(module, path)
            if orig is None:
                missing.append(span)
                continue
            wrappers[id(orig)] = self._wrap(orig, self.stats[span], hook)
            self._originals[id(orig)] = orig
        replaced = []
        for owner, ns in list(self._namespaces()):
            for attr, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    continue
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, value))
                replaced.append((getattr(owner, "__qualname__",
                                         owner.__name__), attr))
        return replaced, missing

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def stale_bindings(self):
        """Namespaces that still bind an unwrapped target: each is a hole
        in the trace.  Empty after a complete install."""
        out = []
        for owner, ns in self._namespaces():
            for attr, value in ns.items():
                if self._originals.get(id(value), _MISSING) is value:
                    out.append((getattr(owner, "__qualname__",
                                        owner.__name__), attr))
        return out

    def self_total(self):
        return sum(s.self_s for s in self.stats.values())

    def metrics(self):
        out = {}
        for name in LAYER_METRICS:
            span, field = _ALIASES.get(name, name).rsplit(".", 1)
            out[name] = getattr(self.stats[span], field)
        return out

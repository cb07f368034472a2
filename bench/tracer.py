"""Per-layer tracing from outside the package.

The tracer replaces the package's functions at its module boundaries with
wrappers, including the names a consuming module imported for itself (such
as `corner_lab.bessel_i_scaled_many` and `exact_spectra.brent`).  Every
wrapper keeps a frame on one stack, so a layer's self time is its duration
minus the time of the wrapped calls made inside it.  Spans are kept in
memory; the innermost boundaries, called up to millions of times, are only
aggregated into counts and summed self time.  `uninstall` puts every
original back and `restored` checks that it did.
"""

import importlib
import time
from collections import defaultdict

# metric prefix, aggregated only, [(module, attribute)]
BOUNDARIES = (
    ("cli", False, [("heattrace.cli", "main")]),
    ("corner_lab.corner_finite_part", False, [("heattrace.corner_lab", "corner_finite_part")]),
    ("corner_lab.term_contributions", False, [("heattrace.corner_lab", "term_contributions")]),
    ("corner_lab.k_table", False, [("heattrace.corner_lab", "_k_imag_scaled_table")]),
    ("special_fns.i_many", False, [("heattrace.corner_lab", "bessel_i_scaled_many")]),
    ("special_fns.i_scaled", True, [("heattrace.corner_lab", "bessel_i_scaled"),
                                    ("heattrace.sector_models", "bessel_i_scaled")]),
    ("special_fns.k_imag", True, [("heattrace.sector_models", "_k_imag_scaled_impl")]),
    ("special_fns.j", True, [("heattrace.special_fns", "bessel_j")]),
    ("special_fns.j_zero", True, [("heattrace.exact_spectra", "bessel_j_zero"),
                                  ("heattrace.exact_spectra", "bessel_j_prime_zero")]),
    ("special_fns.leggauss", True, [("numpy.polynomial.legendre", "leggauss")]),
    ("rootfind.brent", True, [("heattrace.special_fns", "brent"),
                              ("heattrace.exact_spectra", "brent")]),
    ("quad_fp.finite_part", False, [("heattrace.quad_fp", "finite_part")]),
    ("quad_fp.integrate", False, [("heattrace.quad_fp", "integrate")]),
    ("sector_models.heat_kernel", True, [("heattrace.sector_models", "sector_heat_kernel")]),
    ("sector_models.greens_kl", False, [("heattrace.sector_models", "greens_kl")]),
    ("sector_models.half_plane", True, [("heattrace.sector_models", "half_plane_kernel")]),
    ("sector_models.laplace_consistency", False,
     [("heattrace.sector_models", "laplace_consistency")]),
    ("exact_spectra.trace_samples", False, [("heattrace.exact_spectra", "trace_samples")]),
    ("exact_spectra.fit", False, [("heattrace.exact_spectra", "fit_asymptotics")]),
    ("trace_coeffs", False, [("heattrace.trace_coeffs", name)
                             for name in ("coefficients", "coefficients_gb", "distinguish")]),
)

# per-layer metric -> how it is read from one traced pass
LAYER_METRICS = (
    "special_fns.i_many.calls", "special_fns.i_many.orders", "special_fns.i_many.self_s",
    "corner_lab.k_table.calls", "corner_lab.k_table.self_s",
    "quad_fp.finite_part.calls", "quad_fp.finite_part.self_s", "quad_fp.finite_part.cond_max",
    "corner_lab.corner_finite_part.self_s", "corner_lab.term_contributions.self_s",
    "special_fns.j.calls", "special_fns.j.self_s",
    "special_fns.j_zero.calls", "special_fns.j_zero.computed", "special_fns.j_zero.self_s",
    "special_fns.j_per_zero", "special_fns.j_zero.hit_ratio",
    "rootfind.brent.calls", "rootfind.brent.self_s",
    "exact_spectra.trace_samples.calls", "exact_spectra.trace_samples.self_s",
    "exact_spectra.eigenvalues", "exact_spectra.cutoff_max",
    "exact_spectra.fit.self_s", "exact_spectra.fit.cond_max",
    "special_fns.leggauss.calls", "special_fns.leggauss.self_s",
    "special_fns.i_scaled.calls", "special_fns.i_scaled.self_s",
    "special_fns.k_imag.calls", "special_fns.k_imag.self_s",
    "quad_fp.integrate.calls", "quad_fp.integrate.nodes", "quad_fp.integrate.self_s",
    "sector_models.heat_kernel.calls", "sector_models.heat_kernel.self_s",
    "sector_models.greens_kl.calls", "sector_models.greens_kl.self_s",
    "sector_models.half_plane.calls", "sector_models.half_plane.self_s",
    "sector_models.laplace_consistency.self_s",
    "trace_coeffs.calls", "trace_coeffs.self_s",
    "cli.self_s",
)


def unit(name):
    """Unit of a per-layer metric."""
    if name.endswith("_s"):
        return "s"
    if name.endswith((".hit_ratio", ".j_per_zero")):
        return "ratio"
    if name.endswith((".cond_max", ".cutoff_max")):
        return "1"
    return "count"


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []  # (span id, parent id, job, name, start, end, self seconds)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)  # orders, nodes, computed zeros, ...
        self.maxima = defaultdict(float)  # condition numbers, cutoffs
        self.job = None
        self._stack = []  # [child seconds, span id] per open call
        self._patches = []  # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn, aggregate, after):
        stack, spans = self._stack, self.spans
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            # an aggregated frame passes its nearest span on as the parent
            frame = [0.0, parent if aggregate else len(spans)]
            if not aggregate:
                spans.append(None)  # reserve the id; filled in on return
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                calls[name] += 1
                self_s[name] += own
                if not aggregate:
                    spans[frame[1]] = (frame[1], parent, self.job, name, start, end, own)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        from heattrace import exact_spectra, special_fns

        counts, maxima = self.counts, self.maxima

        def keep_max(key, value):
            maxima[key] = max(maxima[key], value)

        def add(key, value):
            counts[key] += value

        after = {
            "special_fns.i_many": lambda r, a: add("special_fns.i_many.orders", len(a[0])),
            "quad_fp.finite_part": lambda r, a: keep_max(
                "quad_fp.finite_part.cond_max", r.condition_number),
            "quad_fp.integrate": lambda r, a: add("quad_fp.integrate.nodes", r.nodes_used),
            "exact_spectra.fit": lambda r, a: keep_max(
                "exact_spectra.fit.cond_max", r.condition_number),
        }
        for name, aggregate, targets in BOUNDARIES:
            for module, attribute in targets:
                owner = importlib.import_module(module)
                original = getattr(owner, attribute)
                if name == "special_fns.j_zero":
                    original = self._zero_lookup(original)
                self._patch(owner, attribute,
                            self._timed(name, original, aggregate, after.get(name)))

        # counters without a span of their own
        cache_put = special_fns.BesselZeroCache.put

        def put(cache, key, value):
            counts["zero_cache.puts"] += 1
            return cache_put(cache, key, value)

        self._patch(special_fns.BesselZeroCache, "put", put)
        choose_cutoff = exact_spectra.choose_cutoff

        def cutoff(*args, **kwargs):
            value = choose_cutoff(*args, **kwargs)
            keep_max("exact_spectra.cutoff_max", value)
            return value

        self._patch(exact_spectra, "choose_cutoff", cutoff)
        up_to = exact_spectra.Spectrum.up_to

        def counted_up_to(spectrum, bound):
            for lam in up_to(spectrum, bound):
                counts["exact_spectra.eigenvalues"] += 1
                yield lam

        self._patch(exact_spectra.Spectrum, "up_to", counted_up_to)

    def _zero_lookup(self, fn):
        """Counts a zero lookup as computed when it stored anything in the
        zero cache, that is, when it missed."""
        counts = self.counts

        def lookup(*args, **kwargs):
            before = counts["zero_cache.puts"]
            value = fn(*args, **kwargs)
            if counts["zero_cache.puts"] > before:
                counts["special_fns.j_zero.computed"] += 1
            return value

        return lookup

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)

    def restored(self):
        """True when every replaced attribute holds its original again."""
        return all(getattr(owner, attribute) is original
                   for owner, attribute, original in self._patches)

    def exclude(self, seconds):
        """Keep `seconds` spent outside the package (the speed probe) out of
        the self time of the innermost open call."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- results ---------------------------------------------------------

    def metrics(self, scale=1.0):
        """Every LAYER_METRICS value of the traced pass; self times are
        multiplied by `scale`, the pass's speed factor."""
        out = {}
        for name in LAYER_METRICS:
            prefix, _, quantity = name.rpartition(".")
            if quantity == "calls":
                out[name] = float(self.calls[prefix])
            elif quantity == "self_s":
                out[name] = self.self_s[prefix] * scale
            elif name in self.maxima:
                out[name] = self.maxima[name]
            else:
                out[name] = self.counts[name]
        lookups = self.calls["special_fns.j_zero"]
        computed = self.counts["special_fns.j_zero.computed"]
        out["special_fns.j_zero.hit_ratio"] = (lookups - computed) / lookups if lookups else 0.0
        out["special_fns.j_per_zero"] = self.calls["special_fns.j"] / computed if computed else 0.0
        return out

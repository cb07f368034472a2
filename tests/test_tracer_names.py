"""The benchmark's tracer (bench/tracer.py) patches package functions by
(module, attribute) name, so a function moved or renamed without it makes
`bench/run.py --trace 1` crash.  This reads the tracer by path, checks that
every name it patches still resolves, that a traced pass computes what an
untraced one does, and what the corner boundaries see of a job's work."""

import functools
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from heattrace import corner_lab as cl
from heattrace import exact_spectra as es

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# what Tracer.install patches besides BOUNDARIES
COUNTER_TARGETS = [
    ("heattrace.exact_spectra", "choose_cutoff"),
    ("heattrace.exact_spectra", "Spectrum.up_to"),
    ("heattrace.special_fns", "BesselZeroCache.put"),
]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolves(module, dotted):
    owner = importlib.import_module(module)
    try:
        return callable(functools.reduce(getattr, dotted.split("."), owner))
    except AttributeError:
        return False


def test_every_traced_name_resolves():
    targets = [(module, attribute) for _, _, pairs in _tracer_module().BOUNDARIES
               for module, attribute in pairs]
    assert len(targets) > 20
    missing = [(module, attribute) for module, attribute in targets + COUNTER_TARGETS
               if not _resolves(module, attribute)]
    assert missing == []


@pytest.mark.parametrize("build", [
    lambda: es.sector_disk_spectrum(math.pi / 2.0, 1.0, "DD", "N"),
    lambda: es.rectangle_spectrum(1.0, 1.5, ("D", "N"), (("R", 1.0), "D")),
])
def test_traced_samples_equal_untraced(build):
    # the tracer replaces Spectrum.up_to by a generator that counts what it
    # passes on, so trace_samples must read up_to as an iterable
    window = (0.02, 0.1)
    expect = es.trace_samples(build(), window, 8)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        got = es.trace_samples(build(), window, 8)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert got == expect
    cutoff = es.choose_cutoff(build(), window[0])
    assert tracer.counts["exact_spectra.eigenvalues"] == len(build().up_to(cutoff)) > 0
    assert tracer.maxima["exact_spectra.cutoff_max"] == cutoff


@pytest.mark.parametrize("term", ["C", "E"])
def test_term_jobs_make_no_k_table_call(term):
    # C and E come from the exact radial integral of u K_{i mu}(u)^2, so a
    # term_contributions job leaves the corner_lab.k_table boundary idle
    expect = cl.term_contributions(term, 1.5)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        got = cl.term_contributions(term, 1.5)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert got == expect
    assert tracer.calls["corner_lab.term_contributions"] == 1
    assert tracer.calls["corner_lab.k_table"] == 0


def test_i_many_boundary_carries_the_mode_sum_work():
    # the special_fns.i_many metrics read one wrapped I block per cutoff
    # segment, and the blocks hold more self time than the finite part's own
    # code (the grid, the order bounds, the row sums and the fit)
    expect = cl.corner_finite_part("DD", 1.5 * math.pi)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        got = cl.corner_finite_part("DD", 1.5 * math.pi)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert got == expect
    assert tracer.calls["corner_lab.corner_finite_part"] == 1
    assert tracer.calls["special_fns.i_many"] == 14
    assert (tracer.self_s["special_fns.i_many"]
            > tracer.self_s["corner_lab.corner_finite_part"])

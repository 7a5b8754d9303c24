"""Each memory model checked against the peak RSS of the command it charges.

Every refusal of a size that would not fit rests on a constant of bytes per
unit: per degree, per mode or per sampled value.  Each check runs the model's
command at two sizes, each in a fresh `python -m spherewave` process, and reads
that process's peak RSS from a small parent (RUSAGE_CHILDREN).  The model must
charge at least the measured growth per unit, or a run it accepts can run out
of memory, and at most twice it, or it refuses runs that fit.  The sizes grow
the peak by 50-90 MB, so that heap noise stays well below the margins.
"""

import os
import subprocess
import sys

import pytest

from spherewave import cli, harness
from spherewave.modes import mode_count

# Runs argv[1:] and prints its peak RSS in KiB (ru_maxrss on Linux).
PROBE = ("import resource, subprocess, sys; "
         "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
         "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")

KAPPAS_1024 = ",".join(map(str, range(1, 1024)))

# model: (bytes per unit, argv at size s, units at size s, the two sizes)
MODELS = {
    "DEGREE_BYTES": (lambda: harness.DEGREE_BYTES,
                     lambda s: ["weak", "--weak-method", "analytic", "--kappa-ref", str(s)],
                     lambda s: s + 1, (100_000, 400_000)),
    "BYTES_PER_MODE[simulate]": (
        lambda: cli.BYTES_PER_MODE["simulate"],
        lambda s: ["simulate", "--equation", "wave-dsphere", "--dim", "5", "--steps", "2",
                   "--store-every", "2", "--kappa-ref", str(s)],
        lambda s: mode_count(s, 5), (30, 50)),
    "BYTES_PER_MODE[sample-field]": (
        lambda: cli.BYTES_PER_MODE["sample-field"],
        lambda s: ["sample-field", "--equation", "wave-dsphere", "--dim", "5",
                   "--kappa-ref", str(s)],
        lambda s: mode_count(s, 5), (50, 80)),
    "SAMPLE_VALUE_BYTES": (lambda: harness.SAMPLE_VALUE_BYTES,
                           lambda s: ["convergence", "--kappa-ref", "1024", "--kappas",
                                      KAPPAS_1024, "--samples", str(s)],
                           lambda s: s * 1023, (100, 1000)),
}


def _peak_rss(argv, out) -> int:
    """Bytes of peak RSS of `python -m spherewave argv` in a fresh process."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", PROBE, sys.executable, "-m", "spherewave",
                          *argv, "--output", str(out)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    return 1024 * int(run.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("name", list(MODELS))
def test_memory_model_charges_between_one_and_two_times_its_measured_growth(tmp_path, name):
    model, argv, units, sizes = MODELS[name]
    peaks = [_peak_rss(argv(s), tmp_path / str(s)) for s in sizes]
    growth = (peaks[1] - peaks[0]) / (units(sizes[1]) - units(sizes[0]))
    assert growth <= model() <= 2 * growth, f"{name} = {model()}, measured {growth:.1f} B"

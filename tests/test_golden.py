"""Golden digests: exact bytes of the deterministic run artifacts.

Each case is a stock profile shrunk by command-line overrides.  The
sha256 of config.json, trace.csv and summary.txt (and particles.csv when
the config keeps final particles) is pinned, so any change to sampling,
weighting, resampling, emission or formatting shows up as a digest
mismatch.  config.json echoes the option schema with every default
filled in, so its digest also moves when a key, a default or the JSON
form of a value changes, even if no sampled value does.  The CSV that
gen-data writes for each stock profile is pinned too.

The digests pin stream format v3, the order in which each worker draws
its randomness (see psmco.sampler.step_draws and the README); runs
written under the earlier formats (v2's full noise blocks, or the
per-step layout before it) differ for the same config.
A digest may only change together with a CHANGES.md entry saying why.
The digests are those of CPython 3.11 with numpy 2.4 on x86-64.

numpy dispatches float64 exp to an AVX-512 loop (class X86_V4) where the
CPU has it, and that loop rounds some values differently from libm's exp,
which the X86_V3 loop and the X86_V2 baseline reproduce bit for bit.  The
files that depend on it are pinned once per class in BY_CLASS; CASES holds
the rest, which every host checks.  The other class is checked too, in a
child process that switches the AVX-512 loops off.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psmco.cli import main
from test_bench_record import recorder

try:  # numpy >= 2.0
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    __cpu_dispatch__, __cpu_features__ = [], {}

EXP_CLASS = recorder().exp_class()
# dispatch class -> digest set; the baseline gives libm's exp bits, as X86_V3 does
DIGEST_SET = {"X86_V4": "X86_V4", "X86_V3": "X86_V3", "baseline(X86_V2)": "X86_V3"}.get(EXP_CLASS)

MIXTURE = ("--profile", "mixture-5.1", "--override", "n=200", "--override", "m_workers=6",
           "--override", "n_particles=20")
SIGMOID = ("--profile", "sigmoid-5.2", "--override", "n=5000", "--override", "m_workers=4",
           "--override", "n_particles=20")

# the files whose bytes depend on the dispatch class of exp, per class
BY_CLASS = {
    "X86_V4": {
        "mixture": {"trace.csv": "e3e31f164966ef88b513a1d68b6e3969148fd066b085c8ddfffc4dab81993355"},
        "sigmoid-seed3-k37": {"trace.csv": "ced43973a7999ee3d4a05606ec72aa4268fe451b6522fb432a0d8102b9274485"},
        "data sigmoid-5.2": {"data.csv": "98366e36fe7316329c4841d4b18567acb423f67e49e7f04ceef3adf3b6cc356a"},
    },
    "X86_V3": {
        "mixture": {"trace.csv": "11e102538f40b79d7d5d1ee26c15886bfe2459afd74ef9b0f98a891841aa8ccc"},
        "sigmoid-seed3-k37": {"trace.csv": "467d9726c3a0363377cd9fba1a4d372aa848463da433423b3dce1f1d72ff2801"},
        "data sigmoid-5.2": {"data.csv": "33fdd73c5c82d02e0d09bb4cb85ac44c02e00dd87f8b877d49c24d689dee804c"},
    },
}

CASES = {
    "mixture": (MIXTURE, {
        "config.json": "5375a5a1cb93ce5f2326e74744558bd6592d485fbe43cb2486bd996d990b624b",
        "summary.txt": "e6d778967f23e8a868ffbfa2db11cfd303aa1eb4ac972f047930f1d3d4bdf042",
    }),
    "mixture-final-particles": (
        MIXTURE + ("--override", "estimate_every=null",
                   "--override", "keep_final_particles=true"),
        {
            "config.json": "d50ff7765c5d61eebf76b5bb6f8987e8dae0930eed84123145d7c6b996dd1da4",
            "trace.csv": "483383a99caa54f67f8906fb17723efeff2bc161578ae660a1e04a12f2d495d4",
            "summary.txt": "e6d778967f23e8a868ffbfa2db11cfd303aa1eb4ac972f047930f1d3d4bdf042",
            "particles.csv": "cb36ec01ef40090a7c988ae715afab78e02266e7d62aea0829cbc4a75a8a64b7",
        },
    ),
    "mixture-k7-stride3": (
        MIXTURE + ("--override", "batch_size=7", "--override", "estimate_every=3"),
        {
            "config.json": "c411a24847ecc5f9fbbfbbad40cfe09ebc11b12c82d708142192ed073eac35c2",
            "trace.csv": "9914abad46a24b3ab759e5fcb28e7b8c305f81e067ee9ac8b3df60434be04c65",
            "summary.txt": "994a425e5bfee1140071aaab122f9516d3653c7dab293655fc8695b18c1298a5",
        },
    ),
    "sigmoid": (SIGMOID, {
        "config.json": "e0dd43b47413d1f1d0d6bd6088c554825922c417dac5184087e094c27a3dcba3",
        "trace.csv": "5768bc9df9912be470b03027c8000e9364262c4ad7738aa84d5deef32847ff81",
        "summary.txt": "6ce10ade4c6d333abb9a06adb010b1dd9ef33e2e54de9ee8a4c5716d74743637",
    }),
    "sigmoid-seed3-k37": (
        SIGMOID + ("--seed", "3", "--override", "batch_size=37"),
        {
            "config.json": "29a3f460fcd6a05ac05790d8c939a9ae00ba4229544a508196b5bd8912a0c902",
            "summary.txt": "0c405a388fe4b928738570b2e7a66bc97ef8052fc8199d3cf053e5fd36d55514",
        },
    ),
    "psgd": (
        SIGMOID + ("--override", "algorithm=psgd"),
        {
            "config.json": "c6cadc5d77e84311a759ea7a7d1622b948e79b02395b6b64c0ff9d19ec839f24",
            "trace.csv": "fc6c64891a750f91aee58faf0b83eb917d4c080f2d71817eb10fd5d782608ed2",
            "summary.txt": "e57c13fac106d4c9f1c6c7091f362c1c116ac91566ea7d1c7110a6620fef186c",
        },
    ),
}


# gen-data's CSV of each stock profile; the sigmoid's y goes through exp,
# the mixture's centers do not
DATASETS = {
    "data mixture-5.1": ("mixture-5.1", {"data.csv": "498977c43b8d21a9213b90b88a5d40e082a99f6a5b2a0dab300c741a6588a71a"}),
    "data sigmoid-5.2": ("sigmoid-5.2", {}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digests(name, tmp_path):
    """Every file is checked by name, and by digest unless it depends on the
    dispatch class and this class has no pinned set."""
    argv, files = CASES[name]
    assert main(["run", *argv, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({*files, *BY_CLASS["X86_V3"].get(name, {})})
    expected = {**files, **BY_CLASS.get(DIGEST_SET, {}).get(name, {})}
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert got == expected


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_digests(name, tmp_path):
    """gen-data writes the same bytes for a profile's dataset; checked by
    digest unless it depends on the dispatch class and this class has none."""
    profile, files = DATASETS[name]
    assert main(["gen-data", "--profile", profile, "--out", str(tmp_path / "data.csv")]) == 0
    expected = {**files, **BY_CLASS.get(DIGEST_SET, {}).get(name, {})}
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert got == expected


# the features that lift exp from X86_V3 to X86_V4, as far as this numpy
# dispatches them and this CPU has them
AVX512 = [f for f in __cpu_dispatch__ if (f == "X86_V4" or f.startswith("AVX512")) and __cpu_features__[f]]
CHILD = "import sys, pytest, test_golden; print(test_golden.EXP_CLASS); sys.exit(pytest.main(sys.argv[1:]))"


@pytest.mark.skipif(EXP_CLASS != "X86_V4", reason=f"numpy runs exp under {EXP_CLASS or 'an unknown class'} here, "
                    "and no other class with pinned digests can be reached by switching features off")
def test_digests_under_the_other_dispatch_class():
    """The golden cases and datasets, and expit's scipy oracle, rerun
    under X86_V3 in a child process whose NPY_DISABLE_CPU_FEATURES switches
    the AVX-512 loops off; only the child's environment changes."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512),
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-p", "no:cacheprovider", "tests/test_golden.py::test_artifact_digests",
         "tests/test_golden.py::test_dataset_digests", "tests/test_problems.py::test_expit_keeps_scipys_bits_under_libm_exp"],
        cwd=tests.parent, env=env, capture_output=True, text=True, timeout=300)
    assert done.stdout.splitlines()[:1] == ["X86_V3"], done.stdout + done.stderr
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1].startswith("9 passed in ")  # six cases, two datasets, the oracle; none skipped

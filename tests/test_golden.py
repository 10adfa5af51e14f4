"""Golden digests: exact bytes of the deterministic run artifacts.

Each case is a stock profile shrunk by command-line overrides.  The
sha256 of config.json, trace.csv and summary.txt (and particles.csv when
the config keeps final particles) is pinned, so any change to sampling,
weighting, resampling, emission or formatting shows up as a digest
mismatch.  config.json echoes the option schema with every default
filled in, so its digest also moves when a key, a default or the JSON
form of a value changes, even if no sampled value does.

The digests pin stream format v2, the order in which each worker draws
its randomness (see psmco.sampler.draw_block and the README); runs
written under the earlier per-step layout differ for the same config.
A digest may only change together with a CHANGES.md entry saying why.
The digests are those of CPython 3.11 with numpy 2.4 on x86-64.
"""

import hashlib

import pytest

from psmco.cli import main

MIXTURE = ("--profile", "mixture-5.1", "--override", "n=200", "--override", "m_workers=6",
           "--override", "n_particles=20")
SIGMOID = ("--profile", "sigmoid-5.2", "--override", "n=5000", "--override", "m_workers=4",
           "--override", "n_particles=20")

CASES = {
    "mixture": (MIXTURE, {
        "config.json": "5375a5a1cb93ce5f2326e74744558bd6592d485fbe43cb2486bd996d990b624b",
        "trace.csv": "abb9036b052d8375d30f3b43a923b2413a4fad3aff0ff105f309d9edb91689ed",
        "summary.txt": "b37b14a27b11eac5756ec0d003d7df574e21613be787d267016459706a4ca43b",
    }),
    "mixture-final-particles": (
        MIXTURE + ("--override", "estimate_every=null",
                   "--override", "keep_final_particles=true"),
        {
            "config.json": "d50ff7765c5d61eebf76b5bb6f8987e8dae0930eed84123145d7c6b996dd1da4",
            "trace.csv": "446ad28071f2c6e61746a9d143c382dec26cb495c1467e6ef9a16d1dbb9d751a",
            "summary.txt": "b37b14a27b11eac5756ec0d003d7df574e21613be787d267016459706a4ca43b",
            "particles.csv": "418a0761e1595d24d292bd48c97562c2138bd54fee0822e99afb1fd52935d271",
        },
    ),
    "mixture-k7-stride3": (
        MIXTURE + ("--override", "batch_size=7", "--override", "estimate_every=3"),
        {
            "config.json": "c411a24847ecc5f9fbbfbbad40cfe09ebc11b12c82d708142192ed073eac35c2",
            "trace.csv": "9e56b88614a614969063cff0d2a6902a201a8ba2f667a7481f7a0f888278b871",
            "summary.txt": "6711c2b86001f691663c68b7c23d690156b2ebdea2cace71badb95274f0b729f",
        },
    ),
    "sigmoid": (SIGMOID, {
        "config.json": "e0dd43b47413d1f1d0d6bd6088c554825922c417dac5184087e094c27a3dcba3",
        "trace.csv": "498c30ec512361f0b60b78b75f4a27bf5aa277c823003b14d16560444760f811",
        "summary.txt": "040ec5038a83447ad3c2a4a9d1d25e257da5014df026845164324120cc8a8d56",
    }),
    "sigmoid-seed3-k37": (
        SIGMOID + ("--seed", "3", "--override", "batch_size=37"),
        {
            "config.json": "29a3f460fcd6a05ac05790d8c939a9ae00ba4229544a508196b5bd8912a0c902",
            "trace.csv": "ba509c63cbae53eb3a76716c7a8011f6a596f8b531aca560d0159f0dc09f37e0",
            "summary.txt": "29a228a57148bead783ec1d4a1fdbc276ec750785c2056e32282973e95cb3fdc",
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digests(name, tmp_path):
    argv, expected = CASES[name]
    assert main(["run", *argv, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert got == expected

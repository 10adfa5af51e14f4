"""Golden digests: exact bytes of the deterministic run artifacts.

Each case is a stock profile shrunk by command-line overrides.  The
sha256 of config.json, trace.csv and summary.txt (and particles.csv when
the config keeps final particles) is pinned, so any change to sampling,
weighting, resampling, emission or formatting shows up as a digest
mismatch.  config.json echoes the option schema with every default
filled in, so its digest also moves when a key, a default or the JSON
form of a value changes, even if no sampled value does.

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
        "trace.csv": "3258175fb35d3f5464b912484f7787bb223fb50b6865b53c66d718d76561b4f5",
        "summary.txt": "942f54a0505223fc7ec643a8eecfd30cf949406e15d3adde99ee9b4b49d80bc5",
    }),
    "mixture-final-particles": (
        MIXTURE + ("--override", "estimate_every=null",
                   "--override", "keep_final_particles=true"),
        {
            "config.json": "d50ff7765c5d61eebf76b5bb6f8987e8dae0930eed84123145d7c6b996dd1da4",
            "trace.csv": "60b881f67330f5450080546120aa9dbcb3b4f31faf5ce6cfd326665a7ec854a1",
            "summary.txt": "942f54a0505223fc7ec643a8eecfd30cf949406e15d3adde99ee9b4b49d80bc5",
            "particles.csv": "26e64b8cfc80860c6c6934e44f97e596198f574022b6af0a2ed8bf44494a5d1c",
        },
    ),
    "mixture-k7-stride3": (
        MIXTURE + ("--override", "batch_size=7", "--override", "estimate_every=3"),
        {
            "config.json": "c411a24847ecc5f9fbbfbbad40cfe09ebc11b12c82d708142192ed073eac35c2",
            "trace.csv": "d9fcd65dd381fdcd8b8a40ae262f8e987480f2d80d3f55ccb077dbb3c17acdb5",
            "summary.txt": "1806cb252f1209b47806a453e7a6e794a81201aacd919dce0ed4b34b52f0913f",
        },
    ),
    "sigmoid": (SIGMOID, {
        "config.json": "e0dd43b47413d1f1d0d6bd6088c554825922c417dac5184087e094c27a3dcba3",
        "trace.csv": "ff3dffe317bd8970c315af7f4e959ce13f575c9a523de186f98ff47b4325dbb8",
        "summary.txt": "c6ba44e6f0195288f1320f430f00aaee736ef1aa1f6e82f91d06a85dcc373efb",
    }),
    "sigmoid-seed3-k37": (
        SIGMOID + ("--seed", "3", "--override", "batch_size=37"),
        {
            "config.json": "29a3f460fcd6a05ac05790d8c939a9ae00ba4229544a508196b5bd8912a0c902",
            "trace.csv": "0a84b9cfce3510d28f22dab9538a41b46fc53804f9de003561c65e0400954e7e",
            "summary.txt": "e27a8bbef386fef6857b7b4bf2704955516b352971c203574a7c5bfcfd6884af",
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

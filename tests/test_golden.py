"""Pinned SHA-256 digests of CLI output files.

Comparing two runs of the same code, as CI's reproducibility loop does,
cannot see a writer that drifts by one byte.  These digests were taken
before the SVG, JSON and row-numbered CSV writers were rewritten for
speed, so every later writer must reproduce the same bytes.  They hold
for numpy 2.4 with OpenBLAS 0.3.31 on x86-64; a numpy or BLAS build that
rounds the numerics differently changes the CSV values and so these
digests.
"""

import hashlib

import pytest

from lapsig.cli import main

SPEC_256 = '{"n": 256, "generators": [[1, 2.0], [3, 1.0], [7, 4.0]]}'

GOLDEN = {
    "figures_n64": (
        ["figures"],
        {
            "atoms_banded.csv": "979bf5578a042bb7ac505f6ef2d836ff7769b30c553d219d4d519597c088e95b",
            "atoms_banded.svg": "d964636e18c6ef19b1f0e014d4793c7b373fba3b40841232601db5d2936ff73b",
            "atoms_cycle.csv": "72ab6bcc6b8f2f813dc91f1b6e11ceea48a1aa10c9764c9ba1ffbbabb75c1693",
            "atoms_cycle.svg": "2e955707d6dd61ef284b48f255a0a9a0913d0fb822ab7c6e8673cd60ff5c134b",
            "signal_banded.csv": "967d5f6450e4b8524871b44576ccc0a505ff84caa07c484192f3a58cff89ee1b",
            "signal_banded.svg": "2b2639d8af2cb6e3739e334170cc291c089475880d3fe750b86fe8fac2942c2e",
        },
    ),
    "figures_n256": (
        ["figures", "--n", "256"],
        {
            "atoms_banded.csv": "0c0490eb037b3eed36271151db361fdcf8e2ebe27fdc6496411341b5fff364c0",
            "atoms_banded.svg": "3633c99b94ec622c2fa89c0643e612c8f4948c898310237c0b94124801ccf94b",
            "atoms_cycle.csv": "a49fdb90ef7cd26bbc8a46ae935ab5e5f9e7c0ba1e629633570cfc0433bcca28",
            "atoms_cycle.svg": "24b295ddea1dc541b72f4782286d2c667c6e0ad0a4d6680f3b6bafd078b37396",
            "signal_banded.csv": "48f962d1623afe81c2cd123d7faaa57b0a2220535e736a3ebfaf7d2779b7e0a1",
            "signal_banded.svg": "27649c2649d2d654f115efb0116f4ad4f67bfe7c20559a67a4ce6038ff5e97d3",
        },
    ),
    "analysis_basis_n256": (
        ["analysis-basis", "--circulant", SPEC_256, "--support", "5,40,41,200"],
        {
            "basis.csv": "4a3a3fd41125faba0da63793cabf685302c800601e62456143c14142bf3cdf90",
            "cosupport.json": "f5bd88caef9eab5933465c92e02bb9f8960fcad2acd59dcd77f32e0d797e03ed",
            "report.json": "164c3af2ea01440f51515d241121e66ebf3b521cebcdbff04b0b318783e71cfe",
        },
    ),
    "synth_n256": (
        ["synth", "--circulant", SPEC_256, "--support", "5,40,41,200"],
        {
            "report.json": "800f94c808d5c7b608c42bfd2be794c9b0a40d355936c9f3dabf9d8fb5f4cfa3",
            "signal.csv": "68ea475a6725f3164e33c824871e390712f1a9e725be2b8ff6e2d0553740a48b",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digests(tmp_path, name):
    argv, digests = GOLDEN[name]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert got == digests

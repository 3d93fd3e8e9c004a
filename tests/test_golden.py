"""Report bytes pinned: the stdout and exit code of in-process ``mnv`` calls.

Reports, witnesses and exit codes stay byte-identical unless a change says
why they differ.  Each input runs ``verify projection --t 1|2|3``,
``verify helly`` and ``multinerve --t 1|2|3``; the sha256 of the exit codes
and stdout of those calls is compared with the digest recorded here.  The
inputs are the fixture families and ``mnv gen --n 5`` seeds 0-5 of each
backend.  To re-record after a deliberate change, print ``digest(input)``
for every input and say in the change why the bytes moved.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from multinerve.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

CALLS = [("verify", "projection", "{input}", "--t", "1"),
         ("verify", "projection", "{input}", "--t", "2"),
         ("verify", "projection", "{input}", "--t", "3"),
         ("verify", "helly", "{input}"),
         ("multinerve", "{input}", "--t", "1"),
         ("multinerve", "{input}", "--t", "2"),
         ("multinerve", "{input}", "--t", "3")]

GOLDEN = {
    "blown_tetrahedron.family": "f1dba7056b31b33ccc0e9c227f3c43ae36c808cbf1838b3db5d37e19dea21368",
    "corridor.family": "273c83f561020f17e029af8439a9a6fd0cf22ca4acd501c22d56c348fbbb71fd",
    "interval_union_h3.family": "88ebcfba852ba83a20c0eb5ff73c99592e06f49cba2cc283139b71290a8428c5",
    "intervals.family": "9b128e7b082290136d675fe7bf9f63f1f2629828181fd6683d3bbd141a41c41a",
    "two_arcs.family": "0b904d85aca103dcbe354581ed299033a1f2e7ff239790e1d56e89e677281e70",
    "gen-box-0": "2d5fa2b1206b5b0b2189156598437c433373f767761b6c3971147bb78d654499",
    "gen-box-1": "d6dcf3d70c35f5735e5a61fba8c211962e84ce0847d16bdc8a017101b446dfb6",
    "gen-box-2": "c934f719afc4e5c3021c6ee92aaaf115e37c14a6589ec64c690e8d3f7065cbaf",
    "gen-box-3": "6945e057bd5048e78b2dd124a840d4abc340fd3c5425f2d77fe9d818948606cb",
    "gen-box-4": "567f4b841ace63074e62254ae97256507805ae6b66b906d9a80487a6fb748c7c",
    "gen-box-5": "2a8c330cb31cead9392423b3d59b59edcc2fcb18882c5aad8fc00912320a0ad1",
    "gen-subcomplex-0": "32b9dd4b78af649f61adcd59f5b142a5335bfeaa8fdafb736429b03d84db2f26",
    "gen-subcomplex-1": "040ff06abf14dd80b40c5b1cc34144da735a4f73c26a68a5323a2002a2d8e2ec",
    "gen-subcomplex-2": "2a6acd0e5a881221cdca19cfecd576b16c99f7cdefaae97f66b8c0c2a0278e9c",
    "gen-subcomplex-3": "c55a178271409e167eac682db9054d6c1ff3b0651f0d21ee14bcf21d1d2dbc16",
    "gen-subcomplex-4": "d3d947a58d6f2e7c40294ab40436cc0bd15c65feda1cd9c60b5427fd4506e271",
    "gen-subcomplex-5": "e2e6cd00fb1a7187989e3630783c5e1d00200b842a19bfd12b67b0bee3f17433",
}


def _run(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _input_path(name: str, directory: Path) -> str:
    """A fixture file, or ``gen-<backend>-<seed>`` written to ``directory``."""
    if not name.startswith("gen-"):
        return str(FIXTURES / name)
    _, backend, seed = name.split("-")
    path = directory / f"{name}.family"
    assert _run(["gen", "--backend", backend, "--n", "5", "--seed", seed,
                 "--out", str(path)])[0] == 0
    return str(path)


def digest(name: str, directory: Path) -> str:
    path = _input_path(name, directory)
    h = hashlib.sha256()
    for call in CALLS:
        code, out = _run([path if a == "{input}" else a for a in call])
        h.update(f"{' '.join(call)}\n{code}\n{out}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes(name, tmp_path):
    assert digest(name, tmp_path) == GOLDEN[name]

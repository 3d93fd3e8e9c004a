"""Report bytes pinned: the stdout and exit code of in-process ``mnv`` calls.

Reports, witnesses and exit codes stay byte-identical unless a change says
why they differ.  Each family runs ``verify projection --t 1|2|3``,
``verify helly`` and ``multinerve --t 1|2|3``, and ``helly`` alone, whose
report has no ``result`` line; each space (a poset or a
complex) runs ``homology``, and ``leray`` and ``j-index`` exact and
sampled.  The slack
checks run apart, ``verify multinerve --s 0|1`` and ``check-acyclic --s 0|1``,
on the same families, one larger subcomplex family, and one box family
of R^3 (``gen-box-1-d3``) whose union's nerve reaches dimension 4, above
the cut its Betti numbers are counted below.  Plain
``multinerve`` and ``check-acyclic --s 0`` also run on two families of the
benchmark's ``oracle`` size (``gen-box-3-n10``, ``gen-subcomplex-1-n12``).
The sha256 of the
exit codes and stdout of those calls is compared with the digest recorded
here.  The families are the fixture families and ``mnv gen --n 5`` seeds
0-5 of each backend; the spaces are ``double_edge.poset``,
``helpers.random_poset`` seeds 0-5 and ``helpers.random_complex`` seeds 0-3
(complex inputs pin the witness labels, read from the simplex numbering).
The stdout of ``mnv gen`` itself is pinned too, seeds 0-2 of each of the
benchmark's four generators, so a change to generation fails here.
Past the default cap, ``leray --cap 24`` and ``j-index --cap 24`` run on
the multinerves of two ``mnv gen`` box families of 20 and 22 vertices
(``multinerve-box-1-n10``, ``multinerve-box-2-n12``), whose exact walks
also pin how many X[S] they rank.
To re-record after a deliberate change, run
``PYTHONPATH=src:tests python tests/test_golden.py``, which prints the
current digest of every entry of the seven tables, and say in the change
why the bytes moved.
"""

import contextlib
import hashlib
import io
import random
from pathlib import Path

import pytest
from helpers import random_complex, random_poset

from multinerve.cli import main
from multinerve.formats import write_complex, write_poset

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

# ``mnv helly`` on the same families; one whose members all meet exits 1
# with no stdout
HELLY_CALLS = [("helly", "{input}")]

HELLY_GOLDEN = {
    "blown_tetrahedron.family": "a635467432c7447ec50ceda1541c0ac9d63914a2173e4ed92be00ad38a0070b5",
    "corridor.family": "0550690ab32912d027d132c8a13887e09b72b530904b9eb83055be05914b25f1",
    "interval_union_h3.family": "aa7aefc9beb74153ea7c6e84b05d3c23f4fcfe582c3e8fa25bb98ca4be678422",
    "intervals.family": "5f229c121ada51768de992ee95b59a1544a87a0f5e4739b81f1efa05d5e52990",
    "two_arcs.family": "6ba4732d8b875651588c234ab507c4b224034d3ece35583f9fcc64d691f2d624",
    "gen-box-0": "6ba4732d8b875651588c234ab507c4b224034d3ece35583f9fcc64d691f2d624",
    "gen-box-1": "ccd14b5566dedda5df234a6a0e3b528bbaa9d7f6febc31e7780c850a51af2e60",
    "gen-box-2": "458359a6cfd10d6303db0d7834dff09b72e7b633faacadb3c3bb22254922cb3b",
    "gen-box-3": "b0f187c2e909046f876eaa4a31e11bc7295656994bbee7c9b9c3b4c34919684b",
    "gen-box-4": "e217f803fafb98224da462a907f0a01b02866da8d1507317b6e7387ddf890ed7",
    "gen-box-5": "8de487c8377d4d7a1653ee5da6237d616b927de590032c4aac96acb7bded2b9b",
    "gen-subcomplex-0": "6ba4732d8b875651588c234ab507c4b224034d3ece35583f9fcc64d691f2d624",
    "gen-subcomplex-1": "74db93878b4efbf83ad9922802777de387538a60143a8ec51bdaf8a39660574d",
    "gen-subcomplex-2": "7e014911b708020218a000dc9045a8617a22e531e63b258b3207ab3dcf8ebfeb",
    "gen-subcomplex-3": "b6c0b3607830d7ac6f3e1b2f7d2614dacd033da202614ac186cd0ee6f7f28b80",
    "gen-subcomplex-4": "6ba4732d8b875651588c234ab507c4b224034d3ece35583f9fcc64d691f2d624",
    "gen-subcomplex-5": "f01709b5136a1c249966b87435c40fc09cf278c4c5176ed03d40c232e60a9c52",
}

SLACK_CALLS = [("verify", "multinerve", "{input}", "--s", "0"),
               ("verify", "multinerve", "{input}", "--s", "1"),
               ("check-acyclic", "{input}", "--s", "0"),
               ("check-acyclic", "{input}", "--s", "1")]

# ``gen`` options of the families not made with ``--n 5``
GEN_OPTIONS = {"gen-subcomplex-0-n8": ("--n", "8", "--grid", "5",
                                       "--stars-per-member", "3"),
               "gen-box-3-n10": ("--n", "10", "--ambient-dim", "2",
                                 "--boxes-per-member", "2"),
               "gen-subcomplex-1-n12": ("--n", "12", "--grid", "7",
                                        "--stars-per-member", "3"),
               "gen-box-1-d3": ("--n", "6", "--ambient-dim", "3",
                                "--boxes-per-member", "3")}

SLACK_GOLDEN = {
    "blown_tetrahedron.family": "19b89ee49701d261b04fb3593a4b4078a32f57d850440f0810139bf4ff2d1317",
    "corridor.family": "b55a6f14059050c46b264269eb7583a54b14e1c61c31fc68b9d58597c18c5f88",
    "interval_union_h3.family": "0075da9a27ae4a13a0b0987ed3d86394cc2807a417644170a079bc10ad979c0d",
    "intervals.family": "a72e6d18530706b49d81880c35459ad68471009a558d8055bd5f4ab7788e16f1",
    "two_arcs.family": "9d31a24f14fab2817cc7a6836dc8eeb852198d9a1214e81791e90de3108a5eda",
    "gen-box-0": "8c8dc874ae3975a43a5348a840f666c08e26449705349ac6ab97d06417240802",
    "gen-box-1": "ebba58355b3514f76993e71ae9f5775dda6d4d77da88fb7c05279b2571db4ac8",
    "gen-box-2": "c1f92f816b7442db797b953b939fa4db0707228b4c6f64fe8b68158f245fe565",
    "gen-box-3": "a748b1cb7cda7c69e3886036647200afbe6be6a6265dcad4b83a5b720d901609",
    "gen-box-4": "2af1fb2b2e02521ede82fd5f665ecabc2a80d1f12aca0b40e4124dd272942001",
    "gen-box-5": "350f42f70130d2ff97ff333022aa6865defed4b285f10b0111c18cd81f1e0a32",
    "gen-subcomplex-0": "214cf2e868f435a9a2249de6f5852baa427bc02a5fbf8051433656115657ce0c",
    "gen-subcomplex-1": "5541f4d57b3d4b0bc364a8f442baac7853477b9a490d0155eaaed97455ec1608",
    "gen-subcomplex-2": "4af42fa8c489f7f759237d77abe4a93784e4c33697b156f01839f0431ab75238",
    "gen-subcomplex-3": "5d73dd2e7e3c69c4371fb7a3df9a5c07f232479c2d9f1a9db2b25a00cbc7c242",
    "gen-subcomplex-4": "05e36dd36174b5d7bb795fd87ba695997c24f368a61e1aac272699386deab230",
    "gen-subcomplex-5": "2486d19643b300fa184e5418654c43b23aa91d817326aa7b007a25a990fea74e",
    "gen-subcomplex-0-n8": "1efa0c3a5bdc775b50024705795275febf5b77bfa181fcfad31b65a10a1152d7",
    "gen-box-1-d3": "b41f3e7e4a677f52619a47fed77d653ad085ef517b8cfa5317555077d339f0d4",
}

# the multinerve build and the slack scan on families of the benchmark's
# ``oracle`` size, one per backend
ORACLE_CALLS = [("multinerve", "{input}"),
                ("check-acyclic", "{input}", "--s", "0")]

ORACLE_GOLDEN = {
    "gen-box-3-n10": "071d98d39a16326159c9c8f0b7ea8d34be9f8d27d1317767b6e615e8b26eb559",
    "gen-subcomplex-1-n12": "3aa860d2d1aedb3cbb87013a6df324c838dccabfcb69354940418d9d137c077e",
}

# ``mnv gen`` stdout, seeds 0-2 of each of the benchmark's generators
GEN_ARGS = {
    "projection-subcomplex": ("--backend", "subcomplex", "--n", "5",
                              "--grid", "4", "--stars-per-member", "2"),
    "projection-box": ("--backend", "box", "--n", "5", "--ambient-dim", "1",
                       "--boxes-per-member", "2"),
    "oracle-box": ("--backend", "box", "--n", "10", "--ambient-dim", "2",
                   "--boxes-per-member", "2"),
    "oracle-subcomplex": ("--backend", "subcomplex", "--n", "12",
                          "--grid", "7", "--stars-per-member", "3"),
}

GEN_GOLDEN = {
    "projection-subcomplex-0": "69aa2541a8019ffc95f3badeeeb1e12a02ab265c369809dfe864422a23478518",
    "projection-subcomplex-1": "76e744ee5b9499556974d5e3f37c6c76c774b1d4e486ff75e0048e1ce904fd13",
    "projection-subcomplex-2": "caaf172ed8642c3bf2c79a4fd64e605682e40602f5ea1061ff08ba8b367a3f91",
    "projection-box-0": "b0fec3a8eca8826f1c188b4381fa977081bc5f052e221ec43325a6362f2e454a",
    "projection-box-1": "6e2e6097ceabf0f763a20ae4a1a10201a55eb5e506598fc9abb2bfa7c65ef236",
    "projection-box-2": "91f67a300024f102bf61615a4e905325a4025a223cdc07199c43cc2a5db0dd9d",
    "oracle-box-0": "34b24edccd5b3256b6aae0decfb69b88e7fb2f7f36d1d13a41f5a6696a4fad26",
    "oracle-box-1": "c6dab6895bcb97d8e2583b02d7d7a72bd571394a7624f5805241207333d95613",
    "oracle-box-2": "e2001bc5a5ee126c138495d1ff7786b27299c17d122ad21fb4bf9fd6ed02a2c8",
    "oracle-subcomplex-0": "6683a14d0b831b09319ea560aa077e7dc147bfa14c9c4816ce5c3ef7d62feb4c",
    "oracle-subcomplex-1": "765f36de805596cb17ec5155116e2e672acaf7a827bc974ff7617bffee0a7d99",
    "oracle-subcomplex-2": "b93a086ab8b70f5bf98077c46cafcbe71379e8a8eac42b034e8880e3d6ba20fd",
}

# exact walks past the default cap, on the multinerves of ``mnv gen``
# families: ``multinerve-<backend>-<seed>-n<members>``, in R^2 with two
# boxes per member; the value is the number of X[S] each walk ranks
CAP_CALLS = [("leray", "{input}", "--cap", "24"),
             ("j-index", "{input}", "--cap", "24")]

CAP_GOLDEN = {
    "multinerve-box-1-n10": "a481f222675369fe8dcb551c0e35b4302b67d71a4a60adbbc616e0db3c1602c3",
    "multinerve-box-2-n12": "3be710ee699ee524582aaa1a29e80ca80a0c4422ae031f8e90dbe2acf40c98e6",
}

CAP_RANKED = {"multinerve-box-1-n10": 22, "multinerve-box-2-n12": 24}

SPACE_CALLS = [("homology", "{input}"),
               ("leray", "{input}"),
               ("leray", "{input}", "--sample", "25", "--seed", "1"),
               ("j-index", "{input}"),
               ("j-index", "{input}", "--sample", "25", "--seed", "1")]

SPACE_GOLDEN = {
    "double_edge.poset": "1e8030d5006e0f5020de4e199147346c6346265bd26c3de52cbc1c4b1fd5311d",
    "random-0": "cd22a22325933d64da6f7c4934bdd92a35bc40d014661bd46539adcb7d2246a5",
    "random-1": "0a0cea2bd9849d091616ac347524f5a3369f66877f95216b1f59274afd7bfc33",
    "random-2": "5746bc1cd85bcf4d2761557c1774f05fe781ddf33d70280cca3ae0cc2537ecd5",
    "random-3": "2d15533251ea5a6fdca1438fa1b9d2b64dd3c7b9bedb64a30cb1a0a6a67e18d7",
    "random-4": "e1c344589a5dc83acab26a2eb9b411974045bec439bc1ec989e3efcfabf69d87",
    "random-5": "e1c344589a5dc83acab26a2eb9b411974045bec439bc1ec989e3efcfabf69d87",
    "complex-0": "5b527b68eb5fb4bc0d0536d69198d66587c4b391178bf4d37dfc9eb14ed25420",
    "complex-1": "4a90d0e3047175f533747c26772f7c85b768d4b31d81b3bfe167f20d0d8d5d37",
    "complex-2": "2fe45c36c125252dd5e53a40efc5f44c309fbe1484444f413a1eda812f25825b",
    "complex-3": "4a90d0e3047175f533747c26772f7c85b768d4b31d81b3bfe167f20d0d8d5d37",
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
    _, backend, seed = name.split("-")[:3]
    path = directory / f"{name}.family"
    options = GEN_OPTIONS.get(name, ("--n", "5"))
    assert _run(["gen", "--backend", backend, "--seed", seed, *options,
                 "--out", str(path)])[0] == 0
    return str(path)


def _space_path(name: str, directory: Path) -> str:
    """A fixture poset, or ``random-<seed>`` (a poset) or ``complex-<seed>``
    written to ``directory``."""
    kind, _, seed = name.partition("-")
    if kind == "random":
        text = write_poset(random_poset(random.Random(int(seed))))
    elif kind == "complex":
        text = write_complex(random_complex(random.Random(int(seed))))
    else:
        return str(FIXTURES / name)
    path = directory / name
    path.write_text(text)
    return str(path)


def _multinerve_path(name: str, directory: Path) -> str:
    """The multinerve poset of ``multinerve-<backend>-<seed>-n<members>``,
    written to ``directory``."""
    _, backend, seed, members = name.split("-")
    family, path = directory / f"{name}.family", directory / f"{name}.poset"
    assert _run(["gen", "--backend", backend, "--seed", seed,
                 "--n", members[1:], "--ambient-dim", "2",
                 "--boxes-per-member", "2", "--out", str(family)])[0] == 0
    assert _run(["multinerve", str(family), "--out", str(path)])[0] == 0
    return str(path)


def _digest(path: str, calls: list) -> str:
    h = hashlib.sha256()
    for call in calls:
        code, out = _run([path if a == "{input}" else a for a in call])
        h.update(f"{' '.join(call)}\n{code}\n{out}\n".encode())
    return h.hexdigest()


def gen_digest(name: str, directory: Path | None = None) -> str:
    """The sha256 of ``mnv gen`` stdout for ``<generator>-<seed>``."""
    generator, _, seed = name.rpartition("-")
    code, out = _run(["gen", *GEN_ARGS[generator], "--seed", seed])
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def digest(name: str, directory: Path) -> str:
    return _digest(_input_path(name, directory), CALLS)


def helly_digest(name: str, directory: Path) -> str:
    return _digest(_input_path(name, directory), HELLY_CALLS)


def slack_digest(name: str, directory: Path) -> str:
    return _digest(_input_path(name, directory), SLACK_CALLS)


def oracle_digest(name: str, directory: Path) -> str:
    return _digest(_input_path(name, directory), ORACLE_CALLS)


def space_digest(name: str, directory: Path) -> str:
    return _digest(_space_path(name, directory), SPACE_CALLS)


def cap_digest(name: str, directory: Path) -> str:
    return _digest(_multinerve_path(name, directory), CAP_CALLS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes(name, tmp_path):
    assert digest(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(HELLY_GOLDEN))
def test_helly_report_bytes(name, tmp_path):
    assert helly_digest(name, tmp_path) == HELLY_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SLACK_GOLDEN))
def test_slack_report_bytes(name, tmp_path):
    assert slack_digest(name, tmp_path) == SLACK_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_size_report_bytes(name, tmp_path):
    assert oracle_digest(name, tmp_path) == ORACLE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GEN_GOLDEN))
def test_gen_bytes(name):
    assert gen_digest(name) == GEN_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SPACE_GOLDEN))
def test_space_report_bytes(name, tmp_path):
    assert space_digest(name, tmp_path) == SPACE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CAP_GOLDEN))
def test_past_cap_report_bytes(name, tmp_path):
    assert cap_digest(name, tmp_path) == CAP_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CAP_RANKED))
def test_past_cap_ranked_count(name, tmp_path, monkeypatch):
    from multinerve.homology import ChainComplex
    path = _multinerve_path(name, tmp_path)
    real, ranked = ChainComplex.select, []

    def spy(rows, cells):
        ranked.append(cells)
        return real(rows, cells)
    monkeypatch.setattr(ChainComplex, "select", staticmethod(spy))
    assert _run(["leray", path, "--cap", "24"])[0] == 0
    assert len(ranked) == CAP_RANKED[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for title, table, fn in (("GOLDEN", GOLDEN, digest),
                                 ("HELLY_GOLDEN", HELLY_GOLDEN, helly_digest),
                                 ("SLACK_GOLDEN", SLACK_GOLDEN, slack_digest),
                                 ("ORACLE_GOLDEN", ORACLE_GOLDEN, oracle_digest),
                                 ("SPACE_GOLDEN", SPACE_GOLDEN, space_digest),
                                 ("CAP_GOLDEN", CAP_GOLDEN, cap_digest),
                                 ("GEN_GOLDEN", GEN_GOLDEN, gen_digest)):
            print(f"{title} = {{")
            for name in table:
                print(f'    "{name}": "{fn(name, Path(tmp))}",')
            print("}")

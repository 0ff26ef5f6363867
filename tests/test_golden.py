"""Golden digests: the sha256 of every file the CLI writes for three small
seeded logs, across every subcommand, and for one larger log, on which LOF
runs in several blocks.

Any change to these bytes changes what ocad computes or writes, so a
refactor or a speed-up must leave them alone. ``run.json`` is hashed with
its ``log`` parameter dropped, because that is a temporary path. After a
deliberate change of an output format, print the new table with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ocad.cli import main

SEED = "5"

LOGS = {
    "p2p": ("generate", "--n-orders", "40", "--maverick-rate", "0.1", "--postmortem-rate", "0.1",
            "--double-invoice-rate", "0.1", "--reopen-rate", "0.1", "--seed", "3"),
    "blocked": ("generate", "--variant", "blocked-invoices", "--n-orders", "40", "--blocked-rate", "0.1",
                "--seed", "4"),
    # Other rates present: the blocked set must not depend on them.
    "blocked-mixed": ("generate", "--variant", "blocked-invoices", "--n-orders", "40", "--blocked-rate", "0.1",
                      "--maverick-rate", "0.1", "--reopen-rate", "0.1", "--seed", "3"),
    # The bench's P2P rates: LOF takes the FastMap embedding of its 1,500
    # orders through many blocks.
    "p2p-1500": ("generate", "--n-orders", "1500", "--maverick-rate", "0.05", "--postmortem-rate", "0.03",
                 "--double-invoice-rate", "0.05", "--reopen-rate", "0.02", "--seed", "1"),
}

COMMANDS = {
    "features": ("features", "--object-type", "order"),
    "detect": ("detect", "--object-type", "order"),
    "detect-fastmap": ("detect", "--object-type", "order", "--reducer", "fastmap"),
    "detect-pca": ("detect", "--object-type", "order", "--reducer", "pca"),
    "detect-lof-raw": ("detect", "--object-type", "order", "--detector", "lof", "--cobirth-codeath"),
    "aggregate-invoice": ("aggregate", "--object-type", "invoice", "--propagate-from", "order"),
    "aggregate-order-median": ("aggregate", "--object-type", "order", "--propagate-from", "invoice",
                               "--agg", "median"),
    "abstract": ("abstract", "--object-type", "order"),
    "abstract-raw": ("abstract", "--object-type", "order", "--raw-table", "--max-rows", "30"),
}

# The commands run on each log: every one on the small logs.
RUNS = {log: ("detect-fastmap",) if log == "p2p-1500" else tuple(COMMANDS) for log in LOGS}


def tree_digests(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "run.json":
            manifest = json.loads(data)
            manifest["params"].pop("log", None)
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        out[p.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def run_all(work: Path, keys=None) -> dict[str, dict[str, str]]:
    """Digests of the output trees of ``keys`` (``log/command``; every run by
    default), each log generated once under ``work``."""
    digests = {}
    for key in keys or [f"{log}/{cmd}" for log in LOGS for cmd in ("generate", *RUNS[log])]:
        log_name, cmd_name = key.split("/")
        gen_out = work / log_name / "generate"
        if not gen_out.exists():
            assert main([*LOGS[log_name], "--out", str(gen_out)]) == 0
        if cmd_name != "generate":
            code = main([*COMMANDS[cmd_name], "--log", str(gen_out / "log.json"), "--seed", SEED, "--out", str(work / key)])
            assert code == 0, key
        digests[key] = tree_digests(work / key)
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("key", [f"{log}/{cmd}" for log in LOGS for cmd in ("generate", *RUNS[log])])
def test_golden_digests(digests, key):
    assert digests[key] == GOLDEN[key]


# Writes the digests of argv[2:] under argv[1] to argv[1]/digests.json; the
# commands print their summaries to stdout.
_CHILD = """
import json, sys
from pathlib import Path
from test_golden import run_all
work = Path(sys.argv[1])
(work / "digests.json").write_text(json.dumps(run_all(work, sys.argv[2:])))
"""


def test_detect_trees_do_not_depend_on_the_blas_thread_count(digests, tmp_path):
    # OpenBLAS fixes its thread count when it loads, so one thread needs a
    # process of its own; p2p-1500 runs LOF over many blocks
    keys = ["p2p-1500/detect-fastmap", "p2p/detect-lof-raw"]
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path), *keys], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "digests.json").read_text()) == {key: digests[key] for key in keys}


GOLDEN = {
    "p2p/generate": {
        "ground_truth.csv": "0ada91612acd3ff5971b3b55a8d0ae18892f1fae7102bd3722ddea930bebaeef",
        "log.json": "0a50d2032506824e1676fbf167140b8ef6295701c7ea6841f58a3c8c2d1a2525",
        "run.json": "b176b215beb6ee7fbc3b729de79eb5760c0e12a07aeaf877266cc84546c86719"
    },
    "p2p/features": {
        "features.csv": "748c16f589f4438b2ade881ace05f3b1fc89443fa4cde67a9b6753ffcf0d0373",
        "run.json": "f86c8e7cd71c98f379b96e575e575a608a08a26a8ad85a7fca0e8c5b7ea9e7be"
    },
    "p2p/detect": {
        "lifecycles/rank000_po-00004.txt": "1da249ab9edf6bce14ad86b0832ebfb5bea774c153aea8a78aaba25a3e2704ee",
        "lifecycles/rank001_po-00022.txt": "3d99134f673299ec4c82be40f9128044829803d66eb4b7440e7a8c7b95446c8d",
        "lifecycles/rank002_po-00003.txt": "d9dc888ec89cb4ebd61c418a209ebd5570488fdaba801be13c69b9952ed2c670",
        "lifecycles/rank003_po-00023.txt": "1832614e77597942a2ee24bfb580380df06e3cbd12dd65c124524351938cd8a7",
        "lifecycles/rank004_po-00021.txt": "0f4a1374d761bfdb1805a03074c6cd2a6977e05c5e815bd5b7d05e03af11a2ee",
        "lifecycles/rank005_po-00002.txt": "eaf66bfc9974fc05d97bc82cc4bd4e9f3726860fb8b5dd25907e6156adaa6c27",
        "lifecycles/rank006_po-00038.txt": "f0319d4736a95dd544c2cd6c27f6d9777bab2ef72bcad06744366e3636bb086c",
        "lifecycles/rank007_po-00030.txt": "5ecbd6ce1820035769928df12ba0275fad55c7fc27ba9439e52b2eb64ec5801a",
        "lifecycles/rank008_po-00017.txt": "a2d30c216c6b0a3380be6ce1f02689a564e85b41294b5ce717e4f93de14b0b23",
        "lifecycles/rank009_po-00029.txt": "78aea02567f4aff4306b85db1bd0bbaa13fce4e4a5d6d41189b065dd659b1420",
        "ranks.csv": "dbc02ff26ada40954f0700bcebb69d351ab7a2dbaef896eb3a758acc52f219c9",
        "run.json": "34b1a1e42ee04e7c46e00bed4427a307c7f30db8dbd44f44e02210e08a4729ab",
        "scores.csv": "69d28de4c3a10d08697470e19229e0909d85725e452acff95e778407a948d9d4"
    },
    "p2p/detect-fastmap": {
        "lifecycles/rank000_po-00004.txt": "1da249ab9edf6bce14ad86b0832ebfb5bea774c153aea8a78aaba25a3e2704ee",
        "lifecycles/rank001_po-00038.txt": "f0319d4736a95dd544c2cd6c27f6d9777bab2ef72bcad06744366e3636bb086c",
        "lifecycles/rank002_po-00025.txt": "89bef3959ac137b609a9dfdc091c24bcf807e128567f9ecef70eeb5fddc45e16",
        "lifecycles/rank003_po-00022.txt": "3d99134f673299ec4c82be40f9128044829803d66eb4b7440e7a8c7b95446c8d",
        "lifecycles/rank004_po-00030.txt": "5ecbd6ce1820035769928df12ba0275fad55c7fc27ba9439e52b2eb64ec5801a",
        "lifecycles/rank005_po-00021.txt": "0f4a1374d761bfdb1805a03074c6cd2a6977e05c5e815bd5b7d05e03af11a2ee",
        "lifecycles/rank006_po-00033.txt": "21e11b107e177300481a05419ebd023fbc2f7997a9c9519499de617b33478d0e",
        "lifecycles/rank007_po-00012.txt": "f6edde68d95d22c96d75b513352120fdcd48a59f59986bf06d2b06b565013aab",
        "lifecycles/rank008_po-00029.txt": "78aea02567f4aff4306b85db1bd0bbaa13fce4e4a5d6d41189b065dd659b1420",
        "lifecycles/rank009_po-00011.txt": "6b2bdfe27d6f4440dee372f3885edfb3c0e540c8e6e67f2f1b269765edd9ba2b",
        "ranks.csv": "407f710e1b9f22b7080d4da292da8e9c1f2af2cefe7f36bb9bd5bbcd670fc0c5",
        "run.json": "71a3297565e7ed059517c7ccf06e02376ee8fabcb0ced2bccbf36adab62dabd3",
        "scores.csv": "de46b9287a1d29296ef6e48d95e7abca2f7cadc2664df8128c44228a8763736b"
    },
    "p2p/detect-pca": {
        "lifecycles/rank000_po-00030.txt": "5ecbd6ce1820035769928df12ba0275fad55c7fc27ba9439e52b2eb64ec5801a",
        "lifecycles/rank001_po-00002.txt": "eaf66bfc9974fc05d97bc82cc4bd4e9f3726860fb8b5dd25907e6156adaa6c27",
        "lifecycles/rank002_po-00022.txt": "3d99134f673299ec4c82be40f9128044829803d66eb4b7440e7a8c7b95446c8d",
        "lifecycles/rank003_po-00003.txt": "d9dc888ec89cb4ebd61c418a209ebd5570488fdaba801be13c69b9952ed2c670",
        "lifecycles/rank004_po-00020.txt": "c147a536c86755aa7951fdaf349e8d5c73fdb15e73a0a7cd1a0df9db20f1afc9",
        "lifecycles/rank005_po-00021.txt": "0f4a1374d761bfdb1805a03074c6cd2a6977e05c5e815bd5b7d05e03af11a2ee",
        "lifecycles/rank006_po-00032.txt": "63f9aabf4fbe0c0766dcd3a52674a23cbf0caf28ce240ae1dc32582d8f431ab3",
        "lifecycles/rank007_po-00017.txt": "a2d30c216c6b0a3380be6ce1f02689a564e85b41294b5ce717e4f93de14b0b23",
        "lifecycles/rank008_po-00023.txt": "1832614e77597942a2ee24bfb580380df06e3cbd12dd65c124524351938cd8a7",
        "lifecycles/rank009_po-00004.txt": "1da249ab9edf6bce14ad86b0832ebfb5bea774c153aea8a78aaba25a3e2704ee",
        "ranks.csv": "ffb5466040567b2965e8851b67a41437eeb8aa670420c8f568c32191dad80290",
        "run.json": "cc2d385b6dea6f5d70c4508aca35a1a415eb31d0f8de77781ed264166c8b8293",
        "scores.csv": "48031aedf990ed211f56f6446d79672a6c74017d15ff82597f4764ac54a66488"
    },
    "p2p/detect-lof-raw": {
        "lifecycles/rank000_po-00004.txt": "1da249ab9edf6bce14ad86b0832ebfb5bea774c153aea8a78aaba25a3e2704ee",
        "lifecycles/rank001_po-00038.txt": "f0319d4736a95dd544c2cd6c27f6d9777bab2ef72bcad06744366e3636bb086c",
        "lifecycles/rank002_po-00025.txt": "89bef3959ac137b609a9dfdc091c24bcf807e128567f9ecef70eeb5fddc45e16",
        "lifecycles/rank003_po-00022.txt": "3d99134f673299ec4c82be40f9128044829803d66eb4b7440e7a8c7b95446c8d",
        "lifecycles/rank004_po-00030.txt": "5ecbd6ce1820035769928df12ba0275fad55c7fc27ba9439e52b2eb64ec5801a",
        "lifecycles/rank005_po-00021.txt": "0f4a1374d761bfdb1805a03074c6cd2a6977e05c5e815bd5b7d05e03af11a2ee",
        "lifecycles/rank006_po-00012.txt": "f6edde68d95d22c96d75b513352120fdcd48a59f59986bf06d2b06b565013aab",
        "lifecycles/rank007_po-00029.txt": "78aea02567f4aff4306b85db1bd0bbaa13fce4e4a5d6d41189b065dd659b1420",
        "lifecycles/rank008_po-00011.txt": "6b2bdfe27d6f4440dee372f3885edfb3c0e540c8e6e67f2f1b269765edd9ba2b",
        "lifecycles/rank009_po-00033.txt": "21e11b107e177300481a05419ebd023fbc2f7997a9c9519499de617b33478d0e",
        "ranks.csv": "706061e2e879e3d8b37d1a75e90069841ea3c239256d84194ee4a488b8ee5800",
        "run.json": "6b767f700c3b750e20897119e9a117030d2bc7e9fe527838e2525c470e86438c",
        "scores.csv": "bc337d6501613a75032ab863e4a7923a430e763a269b1846835061ece66e061d"
    },
    "p2p/aggregate-invoice": {
        "feature_scores.csv": "113b7a865c85c1027218bcaa7993ef22e573cced48dcd949a0b7982d207cb143",
        "feature_scores.txt": "244cf490178c30a0393de53fc1cf90a033bb96e0cdcc3c6083f2fcfad40cdb02",
        "run.json": "40da9d36177985b3be943e7f5464edbc4d9648c7ba8b009450d36a1e3b4b78e4"
    },
    "p2p/aggregate-order-median": {
        "feature_scores.csv": "81c5e8f4446148902b58e3d6b1c78073398c78c8106f100b1197aec0c3353a1b",
        "feature_scores.txt": "1bb7b1de10f781b382bb1c810f6beee5f3ce664890c7e5aa3d2f5c74e17f93d0",
        "run.json": "2475ace82f78413af8a07e6d37d950bfb64ac4844ebe9f9d48a07a0b71e13b05"
    },
    "p2p/abstract": {
        "feature_summary.txt": "85ec2f17f5a5ef9894a65e3e2746ff365b62e5df73c40b6a1e0f11aceb1f75a3",
        "oracle_verdicts.csv": "37cd0021d9d716774f770ea236ec323c1bad779fc09070c75eb4fe03e140a831",
        "run.json": "d0f7902600c6fe089c23c2d4da1e45bfecf421222e41019cb5ebe6acbec4e541"
    },
    "p2p/abstract-raw": {
        "feature_summary.txt": "7199b872ac17667f20409351485a6a127860f2083eec1fe8b5422f01e6d8a047",
        "oracle_verdicts.csv": "37cd0021d9d716774f770ea236ec323c1bad779fc09070c75eb4fe03e140a831",
        "run.json": "7cde569f3756b4e49bcc10ca16ee7813f514e66bfa8684508341511734aed200"
    },
    "blocked/generate": {
        "ground_truth.csv": "3d91579139eeac7fe3c632edc71d30ff8ed0925420b19dce0832c4eb74639e03",
        "log.json": "1275f5b60839a6cd19e6df918ab3fc7dbaacafbeb4a541849125baf436cdf904",
        "run.json": "c048c4443d268490dcef504d658eee7f347d39810b07f30c17461656b12b5b67"
    },
    "blocked/features": {
        "features.csv": "babf2d1165b3b72757c21d9292dd6c0223557aeeca645c6811d025b3d00d3dd7",
        "run.json": "881476c98441e599b826cd0cc2e85a3fa8374eeca0a9a14797fcbaa11ec8f009"
    },
    "blocked/detect": {
        "lifecycles/rank000_po-00039.txt": "60694b950abc60de40221278f60dd9e76da21898cc0b114af7ca566e68086df2",
        "lifecycles/rank001_po-00016.txt": "35ae79e5fdf18f24ddd1e784b50cec6f6a1489a6ac92eab8e64dbd58358e03f6",
        "lifecycles/rank002_po-00023.txt": "7fdea587fb3a7d8473e639dc25385ac86ffd3e4be00bc00f0dba077569fa0311",
        "lifecycles/rank003_po-00031.txt": "851d2d49b672e889352f37c6227ca02545a42994a32280fe337ddca9641b8722",
        "lifecycles/rank004_po-00000.txt": "eebba260431864fc7fe95d588c7cadf16ba7b7327451d942e48cc19af3e4e9aa",
        "lifecycles/rank005_po-00017.txt": "45f5bf805aedc2fb929af62658c265ab44411b27db530054ac941a4e49309d5f",
        "lifecycles/rank006_po-00001.txt": "dbd9883425d922e93690b227bdf42f6a7356b0f51d33821deb6ac77e4e46dfcc",
        "lifecycles/rank007_po-00002.txt": "aedcf1b272783bc827301dd530dc999cd660aa8a56dcd53dc4fcfbb792903bc0",
        "lifecycles/rank008_po-00005.txt": "6aaa3b27c49cb45e415a14752b0d826924fb195f9fe6384a0554a13035d7b6c5",
        "lifecycles/rank009_po-00037.txt": "a248f8a4039a1afa79973ffc5bca1a51f0393788e9306653d525a348257da5fe",
        "ranks.csv": "44f1aecaebcc9bf762248cd9a0f77855c73840904fd8456910607285853d15af",
        "run.json": "524c84b6b71c34a42ded36495787886a850116fde0710ec438a4773d16a179e2",
        "scores.csv": "6f51ac8e32ade77a23a6c303201ef9c1ac28d143f0bc0b370410b305d1d2d221"
    },
    "blocked/detect-fastmap": {
        "lifecycles/rank000_po-00016.txt": "35ae79e5fdf18f24ddd1e784b50cec6f6a1489a6ac92eab8e64dbd58358e03f6",
        "lifecycles/rank001_po-00023.txt": "7fdea587fb3a7d8473e639dc25385ac86ffd3e4be00bc00f0dba077569fa0311",
        "lifecycles/rank002_po-00031.txt": "851d2d49b672e889352f37c6227ca02545a42994a32280fe337ddca9641b8722",
        "lifecycles/rank003_po-00039.txt": "60694b950abc60de40221278f60dd9e76da21898cc0b114af7ca566e68086df2",
        "lifecycles/rank004_po-00038.txt": "5f3f6a0eeec00f107b1c601e59a48767b1eefad3122db1e0271ea66f782a2086",
        "lifecycles/rank005_po-00000.txt": "eebba260431864fc7fe95d588c7cadf16ba7b7327451d942e48cc19af3e4e9aa",
        "lifecycles/rank006_po-00017.txt": "45f5bf805aedc2fb929af62658c265ab44411b27db530054ac941a4e49309d5f",
        "lifecycles/rank007_po-00002.txt": "aedcf1b272783bc827301dd530dc999cd660aa8a56dcd53dc4fcfbb792903bc0",
        "lifecycles/rank008_po-00001.txt": "dbd9883425d922e93690b227bdf42f6a7356b0f51d33821deb6ac77e4e46dfcc",
        "lifecycles/rank009_po-00035.txt": "c4e434ef1bfaf34f6c7566b72afbaf66decf14d0e05e1e6d0481f6a30ea382a3",
        "ranks.csv": "c8c50e308d0f8a8cab4d419ae257b9f6807180efd8237957f24b784118f5ee8b",
        "run.json": "a17682865bbd78823045bcf4e104e9f26b8486bcd46a240ebb572e58754234bb",
        "scores.csv": "9db31529f1c1b8f4fb0c01728a53b15321982861be0ccb1ce123315d1eb0319d"
    },
    "blocked/detect-pca": {
        "lifecycles/rank000_po-00016.txt": "35ae79e5fdf18f24ddd1e784b50cec6f6a1489a6ac92eab8e64dbd58358e03f6",
        "lifecycles/rank001_po-00039.txt": "60694b950abc60de40221278f60dd9e76da21898cc0b114af7ca566e68086df2",
        "lifecycles/rank002_po-00000.txt": "eebba260431864fc7fe95d588c7cadf16ba7b7327451d942e48cc19af3e4e9aa",
        "lifecycles/rank003_po-00023.txt": "7fdea587fb3a7d8473e639dc25385ac86ffd3e4be00bc00f0dba077569fa0311",
        "lifecycles/rank004_po-00031.txt": "851d2d49b672e889352f37c6227ca02545a42994a32280fe337ddca9641b8722",
        "lifecycles/rank005_po-00017.txt": "45f5bf805aedc2fb929af62658c265ab44411b27db530054ac941a4e49309d5f",
        "lifecycles/rank006_po-00035.txt": "c4e434ef1bfaf34f6c7566b72afbaf66decf14d0e05e1e6d0481f6a30ea382a3",
        "lifecycles/rank007_po-00005.txt": "6aaa3b27c49cb45e415a14752b0d826924fb195f9fe6384a0554a13035d7b6c5",
        "lifecycles/rank008_po-00002.txt": "aedcf1b272783bc827301dd530dc999cd660aa8a56dcd53dc4fcfbb792903bc0",
        "lifecycles/rank009_po-00038.txt": "5f3f6a0eeec00f107b1c601e59a48767b1eefad3122db1e0271ea66f782a2086",
        "ranks.csv": "864d7e1644f5ac8336a23a31cb0d824af5b11434499604ad477dbe5647c9eced",
        "run.json": "1d9be8b0279169b6b41ff4e1500fc41ccd64c1e3442ac57977838998bf2d0f81",
        "scores.csv": "714d1307e01d3a563d4f7fe7312afe20f8baceafd13adafcbeb237a988cab86f"
    },
    "blocked/detect-lof-raw": {
        "lifecycles/rank000_po-00016.txt": "35ae79e5fdf18f24ddd1e784b50cec6f6a1489a6ac92eab8e64dbd58358e03f6",
        "lifecycles/rank001_po-00023.txt": "7fdea587fb3a7d8473e639dc25385ac86ffd3e4be00bc00f0dba077569fa0311",
        "lifecycles/rank002_po-00031.txt": "851d2d49b672e889352f37c6227ca02545a42994a32280fe337ddca9641b8722",
        "lifecycles/rank003_po-00039.txt": "60694b950abc60de40221278f60dd9e76da21898cc0b114af7ca566e68086df2",
        "lifecycles/rank004_po-00038.txt": "5f3f6a0eeec00f107b1c601e59a48767b1eefad3122db1e0271ea66f782a2086",
        "lifecycles/rank005_po-00000.txt": "eebba260431864fc7fe95d588c7cadf16ba7b7327451d942e48cc19af3e4e9aa",
        "lifecycles/rank006_po-00017.txt": "45f5bf805aedc2fb929af62658c265ab44411b27db530054ac941a4e49309d5f",
        "lifecycles/rank007_po-00002.txt": "aedcf1b272783bc827301dd530dc999cd660aa8a56dcd53dc4fcfbb792903bc0",
        "lifecycles/rank008_po-00001.txt": "dbd9883425d922e93690b227bdf42f6a7356b0f51d33821deb6ac77e4e46dfcc",
        "lifecycles/rank009_po-00035.txt": "c4e434ef1bfaf34f6c7566b72afbaf66decf14d0e05e1e6d0481f6a30ea382a3",
        "ranks.csv": "c8c50e308d0f8a8cab4d419ae257b9f6807180efd8237957f24b784118f5ee8b",
        "run.json": "3a1ea35fa246c16c1a46f80df981a49a8515a61d00762d7f05646c0500037c0e",
        "scores.csv": "81f737e1d77731afc7854a94d9f95487cd24559947678f1ddebcd5431c3f52d5"
    },
    "blocked/aggregate-invoice": {
        "feature_scores.csv": "84ae1d5f550fa1c9a5640afd96f340410c0e21776f3d8321d33167d761893785",
        "feature_scores.txt": "eb5c766eaaf960e2351e54a77bd76d606dad152edf733e56fe564e829c755fdb",
        "run.json": "a391ae7445a6655aa6bbf246b70513d1463cb9a81885e2fa1f693498270775b5"
    },
    "blocked/aggregate-order-median": {
        "feature_scores.csv": "df3460ba89d42255b07b9a037e5f1d58da6fcd0318442e7ef09b533ea641e65b",
        "feature_scores.txt": "3ebbe313c9e5331adc7ef146da4e7dcfbd28d42260fa985eb034a80736a51a1b",
        "run.json": "5c7b091ae220643deb02ad10c1f2ac97bf30a5954def1ca67cb812a8639356d3"
    },
    "blocked/abstract": {
        "feature_summary.txt": "060b9f6a87bce599cf1e3fc088dbb26547007514b27d9f09d883c9e6becff321",
        "oracle_verdicts.csv": "3f4e06fa2a3130c5d814ead51cbcfe546b15c698917822ba07f7ef89c7d446c6",
        "run.json": "e14b1aeb64f736980d57e1d34af668e14f5fb41742fcc103c78108405842e61b"
    },
    "blocked/abstract-raw": {
        "feature_summary.txt": "f28cc73ff67e84667cdcc1e56ef6ca5fb28d002b2c92803743edebcdb0e20fe9",
        "oracle_verdicts.csv": "3f4e06fa2a3130c5d814ead51cbcfe546b15c698917822ba07f7ef89c7d446c6",
        "run.json": "7a6ce5769a6f612a12c7b57a77a2df7760e3bc1101e4a9aaa9d8c106b203a1ed"
    },
    "blocked-mixed/generate": {
        "ground_truth.csv": "7ddc7be2f2168070174199851cadd0da2e4b94bfa627c2d5ba982bccc5e6035f",
        "log.json": "3bc336c9cf2253eef12761698c9c6452fa7a0f78537213280d37ead2bcfc445e",
        "run.json": "eea1e165a8236bfd8392efc3c147f035f6dde4923a09149df777783a76e4f80e"
    },
    "blocked-mixed/features": {
        "features.csv": "ecea339b5e34930adef456a9284bec73434834e2a3486d4d2a7cf2ee55f3b4c1",
        "run.json": "d01c4453333c3373b6ce75f2f70d56e3592383e6ff0ac5ebebf6459cdddf9ab4"
    },
    "blocked-mixed/detect": {
        "lifecycles/rank000_po-00023.txt": "a487f0a921d6cae43ef7ef52ceaba2d4c99685c615871acf23409d043c49d230",
        "lifecycles/rank001_po-00017.txt": "fea325cbad39427ea8dc79c6f1cdb69642f58df141a8d83b4348c75b203025b2",
        "lifecycles/rank002_po-00032.txt": "ca00610969028d0fedc508b6a92b079c24319b1b81e82f445c94958d1c3f6050",
        "lifecycles/rank003_po-00030.txt": "0da3fe5254250c2a2764a9e5ffd105cb603fcf4dd0801b67b39414452b043bf3",
        "lifecycles/rank004_po-00039.txt": "9ebd1e261a494fa9a83c7aa1d96ebe6ad2242c08e03e8c2309c4d254bda32732",
        "lifecycles/rank005_po-00006.txt": "ad6b67adadbc2bbcf9c2151f3bb7b6440e5535f3777f16807a6d93610aab91c0",
        "lifecycles/rank006_po-00002.txt": "dff0cabede1c12b23051de72c46b8f637ad9eac205536791ba8aa6cbf4d609db",
        "lifecycles/rank007_po-00011.txt": "3b39353b1c55b3cfd3ad275db20b57e764d79140f41805a4a4d2d745eec06a89",
        "lifecycles/rank008_po-00028.txt": "0026f9bf13a6b32470fabc664b9b1968bab7cb2e3ac26d35e6cff0022f408bac",
        "lifecycles/rank009_po-00013.txt": "282839f2001ac6824eb57dc7938a7814874c6ec03088042c7903a54653f89043",
        "ranks.csv": "d6a92be55a02e2fe9480e10f8b7da051268f7bb36c90ae8dfcb8f269f8cffabf",
        "run.json": "83476ad79f9215aed00be5fd55d16bdcc3370fb4a8aab9d97507f9da7151ef44",
        "scores.csv": "eb468bbd317131156b276a9d43335a12a1e29c3b7bc5cd72363eaef61f7dc1a4"
    },
    "blocked-mixed/detect-fastmap": {
        "lifecycles/rank000_po-00023.txt": "a487f0a921d6cae43ef7ef52ceaba2d4c99685c615871acf23409d043c49d230",
        "lifecycles/rank001_po-00030.txt": "0da3fe5254250c2a2764a9e5ffd105cb603fcf4dd0801b67b39414452b043bf3",
        "lifecycles/rank002_po-00032.txt": "ca00610969028d0fedc508b6a92b079c24319b1b81e82f445c94958d1c3f6050",
        "lifecycles/rank003_po-00017.txt": "fea325cbad39427ea8dc79c6f1cdb69642f58df141a8d83b4348c75b203025b2",
        "lifecycles/rank004_po-00039.txt": "9ebd1e261a494fa9a83c7aa1d96ebe6ad2242c08e03e8c2309c4d254bda32732",
        "lifecycles/rank005_po-00037.txt": "a2708af28f1486d9b45d7f445ef26c0dca0a8cab1036b3a1785146454cc2f756",
        "lifecycles/rank006_po-00002.txt": "dff0cabede1c12b23051de72c46b8f637ad9eac205536791ba8aa6cbf4d609db",
        "lifecycles/rank007_po-00006.txt": "ad6b67adadbc2bbcf9c2151f3bb7b6440e5535f3777f16807a6d93610aab91c0",
        "lifecycles/rank008_po-00038.txt": "b49dd29014a9428e613f94da2e2363446a372a8bcaabf3b9a0bcc07b4bb3a4bb",
        "lifecycles/rank009_po-00004.txt": "9982334a8133727e9fc94e7d9127bebd5309d97252b68882feeacd8b6a3567ae",
        "ranks.csv": "ee6f3276c16e2eeb841af0c5e6dd615040a2d2cb9bfba61d0a5b4e77b61a8edf",
        "run.json": "05f4ea6bac47a09b8b68d77da03401dc8b147d73fba4c532d969ad9fa02712f2",
        "scores.csv": "1e62c2b9f8af5dc09f831685a5e3927947304716cb8a971ae6b8556123ce9fac"
    },
    "blocked-mixed/detect-pca": {
        "lifecycles/rank000_po-00032.txt": "ca00610969028d0fedc508b6a92b079c24319b1b81e82f445c94958d1c3f6050",
        "lifecycles/rank001_po-00030.txt": "0da3fe5254250c2a2764a9e5ffd105cb603fcf4dd0801b67b39414452b043bf3",
        "lifecycles/rank002_po-00017.txt": "fea325cbad39427ea8dc79c6f1cdb69642f58df141a8d83b4348c75b203025b2",
        "lifecycles/rank003_po-00023.txt": "a487f0a921d6cae43ef7ef52ceaba2d4c99685c615871acf23409d043c49d230",
        "lifecycles/rank004_po-00039.txt": "9ebd1e261a494fa9a83c7aa1d96ebe6ad2242c08e03e8c2309c4d254bda32732",
        "lifecycles/rank005_po-00006.txt": "ad6b67adadbc2bbcf9c2151f3bb7b6440e5535f3777f16807a6d93610aab91c0",
        "lifecycles/rank006_po-00008.txt": "079088f9e54aa19c88fc7dff2e2c0147527961104038398cc0077ded5586051f",
        "lifecycles/rank007_po-00012.txt": "59c00fc4acbab76a306c1f67f1471bd8118b9e696aab988db87d22e9f3488e27",
        "lifecycles/rank008_po-00016.txt": "fb248ed9fdd54f786746a7f794c5a7f37a2397010011510ca7f6f0283caf8211",
        "lifecycles/rank009_po-00007.txt": "44e187a439d728186fa96bfc785d194cd9a03188685b9b7f63ab88867b033eb4",
        "ranks.csv": "cf59290fecbcc6ad9a42da1705b7715586170d69b784899498a2bc2e6b984552",
        "run.json": "9fdabe98928f5d0261f0b30060db807229cd45e1151e3368281ca7d5161bc6bb",
        "scores.csv": "a70fea288150ab9d423cab66af2093012a2b6b7eb3c46ca1b9137a229998034d"
    },
    "blocked-mixed/detect-lof-raw": {
        "lifecycles/rank000_po-00023.txt": "a487f0a921d6cae43ef7ef52ceaba2d4c99685c615871acf23409d043c49d230",
        "lifecycles/rank001_po-00030.txt": "0da3fe5254250c2a2764a9e5ffd105cb603fcf4dd0801b67b39414452b043bf3",
        "lifecycles/rank002_po-00032.txt": "ca00610969028d0fedc508b6a92b079c24319b1b81e82f445c94958d1c3f6050",
        "lifecycles/rank003_po-00017.txt": "fea325cbad39427ea8dc79c6f1cdb69642f58df141a8d83b4348c75b203025b2",
        "lifecycles/rank004_po-00039.txt": "9ebd1e261a494fa9a83c7aa1d96ebe6ad2242c08e03e8c2309c4d254bda32732",
        "lifecycles/rank005_po-00037.txt": "a2708af28f1486d9b45d7f445ef26c0dca0a8cab1036b3a1785146454cc2f756",
        "lifecycles/rank006_po-00002.txt": "dff0cabede1c12b23051de72c46b8f637ad9eac205536791ba8aa6cbf4d609db",
        "lifecycles/rank007_po-00006.txt": "ad6b67adadbc2bbcf9c2151f3bb7b6440e5535f3777f16807a6d93610aab91c0",
        "lifecycles/rank008_po-00038.txt": "b49dd29014a9428e613f94da2e2363446a372a8bcaabf3b9a0bcc07b4bb3a4bb",
        "lifecycles/rank009_po-00004.txt": "9982334a8133727e9fc94e7d9127bebd5309d97252b68882feeacd8b6a3567ae",
        "ranks.csv": "ee6f3276c16e2eeb841af0c5e6dd615040a2d2cb9bfba61d0a5b4e77b61a8edf",
        "run.json": "9c5fe5b3841234c90f5c4350c2fc0efdef882ef3c99d35ec9bef39871c5fe458",
        "scores.csv": "8f94d899b29e9d5ec1a2df0494288c20761f8aa504ec1db76acbecba744616e9"
    },
    "blocked-mixed/aggregate-invoice": {
        "feature_scores.csv": "2899b3a09473b7322ae5581decf79b54ed3fb5c752b5bb679672f5670337eefd",
        "feature_scores.txt": "0aeddf0351e0e249cc6f580d0e6934a3aa3c12185e61b162e6dd664f0c414291",
        "run.json": "c196a4a7220cc94abdeb45a5997e060758db0b723697f2159ad9302108d5a53b"
    },
    "blocked-mixed/aggregate-order-median": {
        "feature_scores.csv": "6e219276024b1747f9be8743f0929b01b8264cad6a6acb8ea7c45e57d7e7d98f",
        "feature_scores.txt": "d18ea6e832212abd1cc89c66f7b8e73e069af1cf422130a56aec01a31a9f152e",
        "run.json": "f58cdf49192e8a1a753e49aa9fd953e68ab12a671d488c8baf1ad72e398a9410"
    },
    "blocked-mixed/abstract": {
        "feature_summary.txt": "76883aed5008692db12b6e424f5c413df3abd23d16efea17c4a671c19dee0b89",
        "oracle_verdicts.csv": "90b06d732bf2647a6e32fd3d0716d74892ff357280a7a007413d2d423d37fa22",
        "run.json": "2bd63a20daca4c5c5669ba47de1235bafd3bf2d874f7add606b0301f3b858c52"
    },
    "blocked-mixed/abstract-raw": {
        "feature_summary.txt": "26e46daf294b9000f3e62dfa29d6a7ea98d97ca2dae0ac014666e7c2d5ac3988",
        "oracle_verdicts.csv": "90b06d732bf2647a6e32fd3d0716d74892ff357280a7a007413d2d423d37fa22",
        "run.json": "f729c2295791782739edca06c938029568d35e70251194dbaad75b2f0ec61879"
    },
    "p2p-1500/generate": {
        "ground_truth.csv": "04da91fa99a8178c967d5329d6ea8edd5ed2687ba408bf29dbecca36bab81509",
        "log.json": "367b00ad8dd32839f553017c5d8d66374f3e2c4ffa8d3ebde370b50cb6ef3083",
        "run.json": "563686b584e4cbb6cf1054058a55dbc0a1c754212d9f09326ab7f3e9b4ba598f"
    },
    "p2p-1500/detect-fastmap": {
        "lifecycles/rank000_po-00849.txt": "eb6a434460549ec10773dfc3a6f854ac352d3d021274522b73becba9349ebfcd",
        "lifecycles/rank001_po-00013.txt": "591d55492c27cfe1e869d39978dfbe96f22d59937c3beae12b417da2ad433fa5",
        "lifecycles/rank002_po-00053.txt": "17c2d21144ae16e76c1d5ddbca41c12bb595da5d936ce2a25df08903b390253a",
        "lifecycles/rank003_po-01484.txt": "af0d6543a6de1d324f0148e48a8e2bbafb48efdea9dfdc92e0f99accb528d4a1",
        "lifecycles/rank004_po-00984.txt": "833b93bb8da3891d0af16977052e0d65ab9e84d680761bc4dace704532434815",
        "lifecycles/rank005_po-00401.txt": "3a8b058986922cde4c7a871bc5bd711edca35fd485694701ef5d97a9c8a1912d",
        "lifecycles/rank006_po-00789.txt": "080ca963721f92858a4bb88ef9a6b44d1f940adfeaffbbf8983bc38c2614e366",
        "lifecycles/rank007_po-01204.txt": "328d2d41c623cc7171cd3135188111c520366b0da938dfa5a89b07ec4a2903e2",
        "lifecycles/rank008_po-00624.txt": "0bf6bb198efb643aa946512899aa526eea9bd73c1cf4304fbbb1a028b1550dc2",
        "lifecycles/rank009_po-00993.txt": "23971e8cf91981bb78ffa91293f1e9dc11e19e1d04996b1de8850d8bc1940c62",
        "ranks.csv": "995b6fd5c3db3898f85ded07ec131e65d51f473d5825dec291d985431b61b499",
        "run.json": "57d8b79f247aedc99e2ad2b51065104ccdb07474737bd63df8cdbe09573adca3",
        "scores.csv": "79433072d8307d07b0d9d17093d7a54af37e616ee8596207e39811e8eca150f5"
    }
}


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        table = run_all(Path(tmp))
    print(json.dumps(table, indent=4))

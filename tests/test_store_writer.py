"""The one store write path: golden bytes, torn manifests, τ validation.

**Golden bytes.**  One module fixture writes seeded stores under fixed
directory basenames (merge and analytics manifests record their inputs'
basenames): builds at τ ∈ {1, 3}, 2- and 3-way merges at τ ∈ {1, 2, 3}, an
``allow_lower_bound`` merge, a rethreshold, a diff and an intersection, and
an LSM tree fed by ``ingest_records`` and collapsed by ``compact --all``.
Every file written — tables, residual tables, both manifests, dictionaries
and the LSM ``MANIFEST`` — must hash to the sha256 pinned in ``GOLDEN``,
measured before build, merge and analytics shared one writer.  A deliberate
change of the on-disk format re-pins them, and says so.

**Manifests fail closed**: a torn or non-object ``store.json`` or
``MANIFEST`` is a :class:`StoreError`, so ``repro query`` exits 2 on it.

**τ is validated once** for every write path: a ``bool`` or non-integer
threshold is a :class:`StoreError` before any directory is touched.
"""

import hashlib
import os
import random

import pytest

from repro.cli import main
from repro.config import StoreConfig
from repro.corpus.vocabulary import Vocabulary
from repro.exceptions import StoreError
from repro.ngramstore import (
    LSMStore,
    NGramStore,
    build_store,
    diff_stores,
    intersect_stores,
    merge_stores,
)
from repro.ngramstore.build import StoreWriter

MAX_TERM = 12

LAYOUT = StoreConfig(num_partitions=2, records_per_block=8)

#: Three partitions want 24 block first keys, more than one 120-record
#: input has, so boundary planning falls back to its record-level sample.
FINE_LAYOUT = StoreConfig(num_partitions=3, records_per_block=8)

VOCABULARY = Vocabulary.from_term_frequencies(
    {f"w{index:02d}": 100 - index for index in range(MAX_TERM + 1)}
)


def make_counts(count, seed):
    """``count`` distinct random n-grams of length 1–3, counts in 1–6, sorted."""
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        keys.add(tuple(rng.randint(0, MAX_TERM) for _ in range(rng.randint(1, 3))))
    return [(key, rng.randint(1, 6)) for key in sorted(keys)]


def write_golden_stores(root):
    """Write every golden scenario under ``root``, one directory each."""

    def build(name, seed, tau=1, vocabulary=VOCABULARY, **metadata):
        path = os.path.join(root, name)
        build_store(
            make_counts(120, seed),
            path,
            store=StoreConfig(num_partitions=2, records_per_block=8, min_frequency=tau),
            vocabulary=vocabulary,
            metadata=metadata or None,
        )
        return path

    def out(name):
        return os.path.join(root, name)

    build("built-tau1", 1, source="golden")
    built = build("built-tau3", 1, tau=3)
    shards = [
        build(f"shard-{name}", seed, tau=2, unigram_total=100 + seed)
        for seed, name in ((2, "a"), (3, "b"), (4, "c"))
    ]
    for tau in (1, 2, 3):
        merge_stores(shards[:2], out(f"merged2-tau{tau}"), store=LAYOUT, min_frequency=tau)
        merge_stores(shards, out(f"merged3-tau{tau}"), store=LAYOUT, min_frequency=tau)
    legacy = [
        build(f"legacy-{name}", seed, vocabulary=None, min_frequency=3)
        for seed, name in ((5, "a"), (6, "b"))
    ]
    merge_stores(legacy, out("lower-bound"), store=LAYOUT, allow_lower_bound=True)
    merge_stores([built], out("rethresholded"), store=FINE_LAYOUT, min_frequency=5)
    diff_stores(shards[0], shards[1], out("diff"), store=FINE_LAYOUT)
    intersect_stores(shards[0], shards[1], out("intersect"), store=LAYOUT, min_frequency=2)
    lsm = LSMStore.init(out("lsm"), min_frequency=2, store=LAYOUT)
    for seed in (7, 8, 9):
        lsm.ingest_records(make_counts(80, seed), vocabulary=VOCABULARY)
    lsm.compact(all_generations=True)


def digests(root):
    """sha256 of every file under ``root``, keyed by ``/``-separated relative path."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                relative = os.path.relpath(path, root).replace(os.sep, "/")
                found[relative] = hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(found.items()))


GOLDEN = {
    "built-tau1/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "built-tau1/part-00000.ngt": "5571e42058f7e645823c8d97ea156e79d1b3353a1e79c8e669a5172be0cdb9d4",
    "built-tau1/part-00001.ngt": "a3b942359cb864e75868d96ad721756caf59c6b05fc79300820c78c3df34ad5f",
    "built-tau1/store.json": "656b2d83150c5f1b970b4437928fde800a34874ed855737547313b37079902ce",
    "built-tau3/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "built-tau3/part-00000.ngt": "ad2dce2161aec8e3f4ec020a4977abd61794390cba90a909686b499a76b30096",
    "built-tau3/part-00001.ngt": "6ec969c4f03dfbc92542ff3a8729efc9e31395cbf441149871d169483bf9f325",
    "built-tau3/residual/part-00000.ngt": "0783b5f4163cada1db653404db9fc94d2ee3b7c64c9a3f3c80f081651d86ec24",
    "built-tau3/residual/part-00001.ngt": "869cc53d1cfd12e4fdf8e8a778b0bd5f156845ce16274b8fc5b2f862bcb70cc2",
    "built-tau3/residual/store.json": "510facb20a377501db2f11cfe6de2abb237de6211a8f0f628a0654d476484a8c",
    "built-tau3/store.json": "8bfa37533180b1d45a457272fa1151ed86707f79de13a2a5a8f63686931d2ae9",
    "diff/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "diff/part-00000.ngt": "a1970f7e06ab8b64db03365cd3e88197412a0821f8ffac74a8dd30f18e27a830",
    "diff/part-00001.ngt": "e53ee770cdedd542160af395429cc5ddde31ebcb7007a8840e2fb2f7880f0545",
    "diff/part-00002.ngt": "2ffe0bf762b3d1f9d8d37b862e65444a1cb77d7a1999a9716d02853b04d42fe1",
    "diff/store.json": "d862c042914453cfd6b8f32ca061bd2adaaa1c1b71447564cd4933e8ffebb9a7",
    "intersect/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "intersect/part-00000.ngt": "dbf1d1a54de674178f983847e5f3e4b5a75bad6b3ad56ec9def8604f61ebc2c2",
    "intersect/part-00001.ngt": "922e72917c78e8e82e81317c14fdb6804402b1ba0994d3e8aa6505f345ddea01",
    "intersect/store.json": "056b6c929adb197fffd2aeb67ab219993311367c7d354f4592f71f6fd6e71a3d",
    "legacy-a/part-00000.ngt": "ba67827cdbbc4fdd22a7052c55b79a8908123f860b6aff8c165daaa39372dd75",
    "legacy-a/part-00001.ngt": "68de8617d8f3acb3ef048bf8f43bda60af4af99139c7a43efab90b9766d7a15a",
    "legacy-a/store.json": "ba000adf6719ecddecf9a832948aa6812048f1917f8ed149db1d4d2a30367ebf",
    "legacy-b/part-00000.ngt": "d6fa3c419eb2c391ebeca66c70b31e7d38a63df2b65beb5d4c5ebd3df4d66c1c",
    "legacy-b/part-00001.ngt": "df94e545904d3cd4b37f93c655086644f0fb0053ef645e618fecf5b01d4bd5b5",
    "legacy-b/store.json": "0f868857cfe82f7d274994580abcdd3adf5d3c9c69b10e10ba945b2cc08cb283",
    "lower-bound/part-00000.ngt": "35f3e3eb59287fceaa9189655def1f5165ca75e37b32e95c708aabcf178581ef",
    "lower-bound/part-00001.ngt": "a1332d1eff72f570b5b19dfa244be620309d7bce55c13800e91ddabe6ecf4d24",
    "lower-bound/store.json": "c98c082e3bef216ca64de00362ed9bb13e4e2685f4a863a9e4c59b3b9a67b4d2",
    "lsm/MANIFEST": "e48d94891636e3c5ce1ace5fb11fabdd02fa20fa26b31060b71e1a14bdbf4798",
    "lsm/gen-00003/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "lsm/gen-00003/part-00000.ngt": "222a5ecfdb14f9b9a640f0538759f0517e32abe9aad4e8a82aeda83425d26f76",
    "lsm/gen-00003/part-00001.ngt": "4171e16e3e846e0f17f90f81c46c260aad00e6931846dcc32ba074a84c3e4a55",
    "lsm/gen-00003/residual/part-00000.ngt": "e007609e335420bb1ae778fb20ba97f2fa022596c18518794810999511d3cb19",
    "lsm/gen-00003/residual/part-00001.ngt": "6d9cd95e2826a85d3f7a93fad50c86aab4257e655a1d897e2d3873484233e4b9",
    "lsm/gen-00003/residual/store.json": "e59b1363f3fd7d5ea9526335b61336318f4b22d685e8515ecc6a61e76bb98f30",
    "lsm/gen-00003/store.json": "816a94ad31eca3ad3285dc67d5d180c678c120aab05e0958d605577bf0bb7de0",
    "merged2-tau1/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "merged2-tau1/part-00000.ngt": "c1e34b71e47c5f2cf30d070f56fcf49730561035d49a6b83be6591e9d0628ea4",
    "merged2-tau1/part-00001.ngt": "299cff380afa6cab722b271638c13eeefc77d49f244aad9fd666222270fca580",
    "merged2-tau1/store.json": "8a1463dfdcf467abd265bdf5fa720370935a9c4057c5ba7bcb5199110f7a2137",
    "merged2-tau2/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "merged2-tau2/part-00000.ngt": "27757b49f84e5deab4a63d3da031072092a3cbbbca6c5c9b6067f446366a05df",
    "merged2-tau2/part-00001.ngt": "a53f56c9e176f91aee0709de0a0379e8fd3fee971f404db73d73a9a6f1f05031",
    "merged2-tau2/residual/part-00000.ngt": "99455ba89e9db73542abb927d14c1f761707ba583d5b91c20bb270d17f1cb554",
    "merged2-tau2/residual/part-00001.ngt": "5eaac9bda5218aae53fc5bbed24237a9ef820cc73f658fdd2c390da5581decb4",
    "merged2-tau2/residual/store.json": "0ee10fd0a9a0b7428e90b9920e6463ddf29220538482f5eb7d874d6cfd621619",
    "merged2-tau2/store.json": "8295f63c8cfcf06a9c3a03adc34b422042141dc74dc4df021e7a96b57799cf17",
    "merged2-tau3/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "merged2-tau3/part-00000.ngt": "6e300ba8fdc894fe1a1bfba89dac8e51d346aa33638a45c6b88bbaa6ddc9d513",
    "merged2-tau3/part-00001.ngt": "dac2f79f1c16b062817191270ad1a8b0a6a77ec7accb26e354ff5066fd23605b",
    "merged2-tau3/residual/part-00000.ngt": "d3d8dc2903ff9d0837e201f1c35742ef70ff0dc21d2d0e0b517c2e1301d2a1f6",
    "merged2-tau3/residual/part-00001.ngt": "5cd510458e407e5614849630cc5eaf7342361a77a95f170214874a024ec6c4e4",
    "merged2-tau3/residual/store.json": "6c955421d087da063e8406f5ed5f217c5965652ae4289d3f902fc5594fbc4ad9",
    "merged2-tau3/store.json": "c1152d7b2e906fe76de8572c694b56fecc48991bc1480d1e9196d99efe2d9d21",
    "merged3-tau1/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "merged3-tau1/part-00000.ngt": "4d4d1a88be0fee11140a57eda5d0215c9b651bf0f80d23f5c2ec9f9be8117d6c",
    "merged3-tau1/part-00001.ngt": "ce0b506bf42b449d4314abb2db85291df83b35ae4cd8d526fba2a075c2fb1d51",
    "merged3-tau1/store.json": "5bd59059e8142313134710c76a8b1de97315bd5e4a1a6bcc06adf0d5915c763a",
    "merged3-tau2/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "merged3-tau2/part-00000.ngt": "7d992659a9f2e848297c618a40aaf9847334b06c4fbda63f0ce939754dc7b720",
    "merged3-tau2/part-00001.ngt": "8f9970aadca6ab153ed3a80e5044a153e7e35042a31df98f9ed0426642375c33",
    "merged3-tau2/residual/part-00000.ngt": "5b9f3d75eb4abf5b5ee66679547caeee2c9687627c1f5416e980a5723d8864d2",
    "merged3-tau2/residual/part-00001.ngt": "64fae2380bd7fde713f0eed44d85eee7dec087d7d71652f94ce34826fcab0258",
    "merged3-tau2/residual/store.json": "51ec7fbb2bf6b7ac119b063f4838811b15d13b270a3469d29ca8f5d0b226eb18",
    "merged3-tau2/store.json": "c8332f341e0a3e814d91ea03d694d23ef023c3ce814696ee18ec77251788a805",
    "merged3-tau3/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "merged3-tau3/part-00000.ngt": "f6d01c472118560bc81770903d8c33bb110662288219ea9227c4c6f3e8740c52",
    "merged3-tau3/part-00001.ngt": "0a45c072bd0c47542297e87414b05241d2447a10537a5a381b55891377fb5beb",
    "merged3-tau3/residual/part-00000.ngt": "6e1a3b67f93464de0ae10f0a530902ce5f564d3599256447ea87863b95b8fd21",
    "merged3-tau3/residual/part-00001.ngt": "e03c2dac2936c80a6dea1b4d0bd350a22a941a4f75a5a5c13bb9d2cec0a89b64",
    "merged3-tau3/residual/store.json": "a390c31f73fc2dfe01fae5c49e9a3886058d7ecf10869ea887c985604c6adb50",
    "merged3-tau3/store.json": "172302dc01a3c0d9193b262489ffa5cb1e9aaa14a81955ae334d49e55aaf6377",
    "rethresholded/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "rethresholded/part-00000.ngt": "490054a79adb38c83d4825f5921cd49c999bc916a0ae2ebe27db3b60765df8c7",
    "rethresholded/part-00001.ngt": "361678f82d1beb35281e453632bb57566953e187ace6e36124c7d7547785b5b6",
    "rethresholded/part-00002.ngt": "385b665100db9e7189fc35c27d5a36690f9e8f909c3818b97db9d2ee84597e67",
    "rethresholded/residual/part-00000.ngt": "19c05aeda18182e478b80231871d14511dcba5fc7c0c78858a2c91a0436e8ff0",
    "rethresholded/residual/part-00001.ngt": "e3fb0bf54275d57749aae8cd6a498298c4a25c79f36fe193c89b07dcf52f74fd",
    "rethresholded/residual/part-00002.ngt": "f7c062629870a614abc358c3a9210437e42bcf0cd7a6a913feea3c558009c747",
    "rethresholded/residual/store.json": "865de3dcd91f1107cf219bbe9d71901d541a56be0087f0957d2fbc060e49b532",
    "rethresholded/store.json": "64fefcd131133f2d58c16b8732238e2f25b02ea232bcc116f3c73e72907af2e9",
    "shard-a/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "shard-a/part-00000.ngt": "5ae5451d4cc5bc043dafcec5d63d2c40d87f18b127c34bcbb9027a20bb8d4c18",
    "shard-a/part-00001.ngt": "543dafaae048e0eaada6c06395bb2d131f97fef0f6da82027a1d7a2be2eb8106",
    "shard-a/residual/part-00000.ngt": "c03653a9e496f2054ec421efe7bd6cee74f64fc194e19d406b987daae733a72e",
    "shard-a/residual/part-00001.ngt": "a211b70b382b4358c432dfd1f824c909fe920d489c7e75351e657f72567b6c5a",
    "shard-a/residual/store.json": "40d75adcdd2247836d704caaeb6bc61ce9206d12cc98af22508c36ebf480bf7b",
    "shard-a/store.json": "2508d801bb505314afe990d213aa76bf7de5e73e1f6808d06f98405978dbf38f",
    "shard-b/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "shard-b/part-00000.ngt": "73901f59af9562ea41408b782da94ffc94d8fcb160bce915dfe5c360b60995f4",
    "shard-b/part-00001.ngt": "8ec06e94e7a67202b6f85c3142cd9ec7956f6236cc3a88766e4878b0dabbefe7",
    "shard-b/residual/part-00000.ngt": "8803305a5c075644e7c634a0c73ce60fdae90c5d4f4db4afeab42f861527fd0d",
    "shard-b/residual/part-00001.ngt": "4c83876c238518f0a20f81716236875c4d3f76126789c79b7f6aac9fd30c5ed1",
    "shard-b/residual/store.json": "c3b1624c4e84f4f1eae30d7a05026bd5e134b1bc4402f4572bb2138c92fed89f",
    "shard-b/store.json": "9671e07a66c049a59e2c0fcb2753619d8efe21abcb4eae32da04841e9b96411b",
    "shard-c/dictionary.txt": "2cc5c197e7a39038722f931c976399ca6bdf30021af8007241f12f51cb08aa50",
    "shard-c/part-00000.ngt": "1be2706d4ce2cd7a5fb0624aed8f75fd801db9e9280444e4e8c77cbcbca0e6db",
    "shard-c/part-00001.ngt": "3f20accd924070d5e5123b6e809b12623bdea91177279d6fe37943bae901f6f0",
    "shard-c/residual/part-00000.ngt": "f37766b140958469cb4d6fde43801b340ae152119a29a24d53242902fc29b868",
    "shard-c/residual/part-00001.ngt": "42e015ccc423b2926b790fa6e7ee775bb1549914672ddca11b9c0a5938726706",
    "shard-c/residual/store.json": "6c0b75947e3dd5189c13b60e2fe0033a90a4465d9f905b4cc3fdc356b59cba00",
    "shard-c/store.json": "e3ce22c142763d063a16eeb020ac6235fbace89e1bac2ff76e190075ace3dc7b",
}


def scenario_of(path):
    return path.split("/", 1)[0]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("golden"))
    write_golden_stores(root)
    return digests(root)


class TestGoldenBytes:
    @pytest.mark.parametrize("scenario", sorted({scenario_of(path) for path in GOLDEN}))
    def test_scenario_bytes(self, written, scenario):
        def of_scenario(found):
            return {path: digest for path, digest in found.items() if scenario_of(path) == scenario}

        assert of_scenario(written) == of_scenario(GOLDEN)

    def test_no_other_files(self, written):
        assert sorted(written) == sorted(GOLDEN)


class TestTornManifests:
    @pytest.fixture
    def store_dir(self, tmp_path):
        path = str(tmp_path / "store")
        build_store(make_counts(40, 11), path)
        return path

    @staticmethod
    def truncate(path):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])

    def test_truncated_store_manifest(self, store_dir):
        self.truncate(os.path.join(store_dir, "store.json"))
        with pytest.raises(StoreError, match="corrupt manifest"):
            NGramStore.open(store_dir)

    def test_non_object_store_manifest(self, store_dir):
        with open(os.path.join(store_dir, "store.json"), "w", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]")
        with pytest.raises(StoreError, match="expected a JSON object, got list"):
            NGramStore.open(store_dir)

    def test_truncated_lsm_manifest(self, tmp_path):
        lsm = LSMStore.init(str(tmp_path / "lsm"))
        lsm.ingest_records(make_counts(40, 12))
        self.truncate(os.path.join(lsm.root, "MANIFEST"))
        with pytest.raises(StoreError, match="corrupt manifest"):
            LSMStore.open(lsm.root)

    def test_query_exits_2_on_a_torn_manifest(self, store_dir, capsys):
        self.truncate(os.path.join(store_dir, "store.json"))
        assert main(["query", store_dir, "--stats"]) == 2
        assert "corrupt manifest" in capsys.readouterr().err

    def test_a_crash_mid_manifest_write_leaves_no_torn_manifest(self, tmp_path, monkeypatch):
        import repro.ngramstore.build as build_module

        def torn_dump(manifest, handle, **options):
            handle.write('{"version": 1, "codec"')
            raise OSError("disk died mid-manifest")

        monkeypatch.setattr(build_module.json, "dump", torn_dump)
        store_dir = str(tmp_path / "store")
        with pytest.raises(OSError, match="mid-manifest"):
            build_store(make_counts(40, 14), store_dir)
        monkeypatch.undo()
        assert "store.json" not in os.listdir(store_dir)
        with pytest.raises(StoreError, match="no store manifest"):
            NGramStore.open(store_dir)


class TestThresholdValidation:
    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_merge_rejects_a_non_integer_tau(self, tmp_path, bad):
        source = str(tmp_path / "source")
        build_store(make_counts(40, 13), source, store=StoreConfig(min_frequency=2))
        out = str(tmp_path / "out")
        with pytest.raises(StoreError, match="must be an integer"):
            merge_stores([source], out, min_frequency=bad)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("bad", [True, 2.5, 0])
    def test_writer_validates_before_touching_the_directory(self, tmp_path, bad):
        out = str(tmp_path / "out")
        with pytest.raises(StoreError, match="min_frequency"):
            StoreWriter(out, StoreConfig(), [], min_frequency=bad)
        assert not os.path.exists(out)

    def test_build_rejects_a_boolean_store_tau(self, tmp_path):
        with pytest.raises(StoreError, match="must be an integer"):
            build_store([((1,), 2)], str(tmp_path / "out"), store=StoreConfig(min_frequency=True))

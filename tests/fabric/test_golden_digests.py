"""Pinned sha256 digests of built FabricIR arrays.

Each digest covers every array of one fabric -- ``kind``, ``xs``,
``ys``, ``spans``, ``tracks``, ``directions``, ``edge_offsets``,
``edge_targets``, ``edge_switch``, ``source_table`` and
``sink_table`` -- with its name, dtype and shape.  The bidirectional
cases are every ``(ArchParams, nx, ny)`` the three perfbench
workloads build at seed 1 (default architecture but for the channel
width); two unidirectional fabrics are added.  A builder change that
moves any node id, attribute, dtype or per-source edge order changes
a digest.

Regenerate the table (only for an intended change of the fabric) with
``PYTHONPATH=src python -m tests.fabric.test_golden_digests``.
"""

import hashlib

import pytest

from repro.arch.params import ArchParams
from repro.fabric import FabricIR

ARRAYS = (
    "kind", "xs", "ys", "spans", "tracks", "directions", "edge_offsets",
    "edge_targets", "edge_switch", "source_table", "sink_table",
)

#: (channel_width, segment_length, directionality, nx, ny) -> sha256.
GOLDEN = {
    # headline (W=64) and mission (W=64, widened to 66)
    (64, 4, 'bidir', 4, 4): "e1786fcb48d167bfaee7e9bd747ab3e46dee5ebe04ae4b0243de9a9c52e31a30",
    (64, 4, 'bidir', 7, 7): "9605d73552adaebb97991e16a1b3ad1afbb2399cba0e4897a990224097d9ef0e",
    (64, 4, 'bidir', 8, 8): "1de39f46c6d406282b72447a0ed96fcecffb6393086a9007894e8f7a780d919f",
    (64, 4, 'bidir', 9, 9): "b86f5c1a5f3d5231a7171ba9373daf2a37ebfe9ed1ec61827176b33f919d4c00",
    (66, 4, 'bidir', 8, 8): "960afd03d48dcd64da79a9f018b43616529f675ac83ee33cf256399f698b2fc2",
    # wmin: the channel-width searches and low-stress routes
    (3, 4, 'bidir', 4, 4): "56f015a8176cad620ae120d129b1d35b6be045935c07ad8ea4a96ecdc2e9b0fa",
    (4, 4, 'bidir', 4, 4): "ee26048413e8bd5b22a8a884fa2dd770256614cc2a478810340d220dbc8eb53a",
    (5, 4, 'bidir', 4, 4): "f87b955d064caec5b90eddd6e43df1a79409d763640f67bcda4017af6e82d75c",
    (6, 4, 'bidir', 4, 4): "7cafd2c59d35f6625dd0950cda9debc63d6738824e19c6e944d79ad80fb87898",
    (8, 4, 'bidir', 4, 4): "8490c2d2d2e1a8a242b2c46523e9864a92b18d33c309bcec412f830da576ae40",
    (12, 4, 'bidir', 4, 4): "fdf987c9ad8155725c0a8ed508b57f8ccd1236842008bb778cbfd575f5d1ec6a",
    (13, 4, 'bidir', 4, 4): "3c42c34af1631c7e44584f4cb28bc763f8234d14413a347104019e2ab47b1a1a",
    (14, 4, 'bidir', 4, 4): "00b375917349abb047f554cd2236a08428292fea1f4c23daad9bb8d7377f9f0f",
    (15, 4, 'bidir', 4, 4): "006716b55dbf7639a474e20301413ec4f8621025c375f769dc80c03b5a059107",
    (17, 4, 'bidir', 4, 4): "fcfeec10a73d7837373ea292cc79bc4a1af827bc752726a7756a78baaa14c44e",
    (18, 4, 'bidir', 4, 4): "43e71fbdd8c7bd5b413b44abe986d984e8c5f6a7caf20381556c3ccedf8a5df5",
    (24, 4, 'bidir', 4, 4): "9eab3650df3742fcc4bafd948f05b1e2b7accc65582b2fa1b632f8a0f0e3d624",
    (6, 4, 'bidir', 5, 5): "386617feb4ec0487960caf70385cf2b45b0bb5814a2270aa978f46625effa056",
    (7, 4, 'bidir', 5, 5): "53ab22586da6c6ec6dea55a677e1ac6c2197e21b5cf06c9f2742a40709bc2dee",
    (8, 4, 'bidir', 5, 5): "9d022cf4c8464fb031a9afa14f3659744a259522532a7bcc0d5fb6bcedfe0118",
    (9, 4, 'bidir', 5, 5): "bb48d923cfbb9c248cc7bf7dd6e44de6b4e7b163cddbbef95dc9cc6983c1c04c",
    (10, 4, 'bidir', 5, 5): "7a27727d9d56cf4b91cbdfc3d5fd9e714132fe654b300b3424101aad6b114354",
    (11, 4, 'bidir', 5, 5): "0d3fb06c8be8b8fed41ef7a302cc6ee4df118f30b586515d49002f44e998a67b",
    (12, 4, 'bidir', 5, 5): "d30665b8e6feb5e28df94f8c7aad4a85cfa265d2730e7a2e682bf4243e5beb99",
    (13, 4, 'bidir', 5, 5): "a0141a6138b28b91ec16dcb99fb1d700ade13d7a9bef3f2a6dd5c4ec3b4e7bc3",
    (14, 4, 'bidir', 5, 5): "a5cb3a9ee13d973c5ac4eb82f99bfb997057c459c2bafc9efedca4553d54842a",
    (15, 4, 'bidir', 5, 5): "9ef58db6dd43d91018ba37d702e80bc3b04be583bfe9e78fd35cab184e630cfb",
    (16, 4, 'bidir', 5, 5): "baef6928a2a21228ceb0cfeef4a51b33b312e259510a09d2d6615d566c4df840",
    (17, 4, 'bidir', 5, 5): "91906cba3d26c4f210c0146fa8d473c95eb610eb3acfc9d5398f9a369607870d",
    (18, 4, 'bidir', 5, 5): "050a702c9cbca3fc25e7dafdbf8acd0f074b4b00223912e00ff96dfb4ba458dd",
    (20, 4, 'bidir', 5, 5): "80c0c958e52b05d9722d4892c159b0b61e6fae3be47c204494dc702a8b3701bf",
    (21, 4, 'bidir', 5, 5): "acc26cf4c14c1120dcaf4a2a67d323a3ce6cdf8e740df6d4160910bcc08fbd62",
    (24, 4, 'bidir', 5, 5): "ac2dfc252aa82536b71457baff7b2def9653823664550354d739a507e08230a8",
    # unidirectional fabrics
    (16, 4, 'unidir', 6, 5): "2214381d2aac7a55c99b44f96c8a3eeb201ad583695587667ddef79ceb360552",
    (8, 2, 'unidir', 4, 5): "6d340197a3bcdc28ae011142c5489d11fe054019e9a002010aa74a31a4cc3694",
}


def fabric_digest(ir: FabricIR) -> str:
    h = hashlib.sha256()
    for name in ARRAYS:
        array = getattr(ir, name)
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _build(key) -> FabricIR:
    width, seg_len, directionality, nx, ny = key
    params = ArchParams(channel_width=width, segment_length=seg_len,
                        directionality=directionality)
    return FabricIR.build(params, nx, ny)


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "W{}_L{}_{}_{}x{}".format(*k))
def test_fabric_arrays_match_golden_digest(key):
    assert fabric_digest(_build(key)) == GOLDEN[key]


if __name__ == "__main__":
    for key in GOLDEN:
        print(f"    {key!r}: \"{fabric_digest(_build(key))}\",")

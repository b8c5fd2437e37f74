"""Pinned digests of the parity corpus (`tests/_parity.py`).

A change meant to keep every output byte-identical keeps every digest.
A change that moves outputs on purpose names each moved family in
CHANGES.md and pins its new digest here.
"""

import pytest

from _parity import FAMILIES, digest

DIGESTS = {
    "decide": "f905f2603026163ab9a1b545ea2d1cfe628e7176447984d91f602c6e77ec5c6a",
    "maps": "596909a53b4bf01f81144a2bb946675c5248972c51115d5ee9d3de2b03f77235",
    "certify": "9a05dc7aaeab5db0793cf97d3ea9b50c3783bd53d1dd103d3a43fdfe87b28800",
    "automorphisms": "3102af26f856e4102403c87c5699fc588dca8cd3b053e23f0f3243313dfea28c",
    "normalize": "d82d0fbfaee47311c750fe6ab94b096ab53d845f65c291db10e04121cb874265",
    "compile": "0fd2c99430053f7e593aa46452fec9c100a2ea28e939bdab69371f0ac8f3e766",
    "rational": "5886766d98c8dc1b3c7e5623abd5ffa4bfda586a9bc4aaff27d5065590e932ca",
    "curve": "85bb221ccf9b5cc5aaf60543814cbd4e94dfab898ffa4e681dafd3f6f52266ee",
    "text": "64b312e5c11125c512862c8ba8af5538e6ea3546a0896e615f0577fbb702e14e",
    "cli": "af2707ecb17e8705aaab694f2e2db65d22467582a2ca5817c1ef19d3bec024a4",
}


def test_every_family_is_pinned():
    assert set(DIGESTS) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(DIGESTS))
def test_parity_digest(family):
    assert digest(family) == DIGESTS[family]

import hashlib

import numpy as np
from hypothesis import given, strategies as st

from taskcascade.seeding import derive_seed, seed_sequence, substream

seeds = st.integers(-2**70, 2**70)
labels = st.lists(st.text(max_size=6) | st.integers(-2**70, 2**70), max_size=3)


@given(seed=seeds, a=labels, b=labels)
def test_a_tuple_seed_draws_what_the_seed_it_derives_draws(seed, a, b):
    derived = derive_seed(seed, *a)
    assert (substream((seed, *a), *b).bit_generator.random_raw(8).tolist()
            == substream(derived, *b).bit_generator.random_raw(8).tolist())
    assert derive_seed((seed, *a), *b) == derive_seed(derived, *b)


def test_a_label_hashes_to_the_same_entropy_every_time():
    def entropy(seed, *labels):
        words = [seed & 0xFFFFFFFFFFFFFFFF]
        for label in labels:
            digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
            words.append(int.from_bytes(digest, "little"))
        return np.random.SeedSequence(words).generate_state(4).tolist()

    for _ in range(2):  # the second round reads the kept digests
        for seed, labels in [(0, ("task",)), (42, ("replicate", "dist")), (-1, ("é", ""))]:
            assert seed_sequence(seed, *labels).generate_state(4).tolist() == \
                entropy(seed, *labels)

"""Labels hashed from a PRF key's precomputed HMAC pads against the
standard library's HMAC."""

import hashlib
import hmac

from hypothesis import given, settings, strategies as st

from lmobf.gf2 import BitVector
from lmobf.obf import key_pads, prf

# Keys of every length from 1 to 130 bytes, so that about half pass the
# 64-byte block; messages of 0 to 300 bytes.
KEYS = st.integers(1, 130).flatmap(lambda n: st.binary(min_size=n, max_size=n))
MESSAGES = st.integers(0, 300).flatmap(lambda n: st.binary(min_size=n, max_size=n))


def _hmac_stream(key: bytes, message: bytes, num_bits: int) -> BitVector:
    """hmac.new(key, message + counter, sha256) for counters 0, 1, ...,
    laid end to end and cut to num_bits."""
    stream = b"".join(
        hmac.new(key, message + c.to_bytes(4, "big"), hashlib.sha256).digest()
        for c in range((num_bits + 255) // 256)
    )
    return BitVector.from_int(int.from_bytes(stream, "big") >> (-num_bits & 255), num_bits)


@given(KEYS, MESSAGES, st.integers(1, 600))
@settings(max_examples=200, deadline=None)
def test_labels_from_key_pads_equal_hmac_new(key, message, num_bits):
    """prf over the inner pad fed the message, finished with the outer
    pad, gives hmac.new's bits: for keys past the 64-byte block, which
    are hashed first, and for widths past one digest, where the counter
    extends the stream."""
    want = _hmac_stream(key, message, num_bits)
    pads = key_pads(key)
    inner = pads.inner.copy()
    inner.update(message)
    assert prf(pads, inner, num_bits) == want
    assert prf(pads, message, num_bits) == want


@given(KEYS, MESSAGES, st.integers(1, 600))
@settings(max_examples=100, deadline=None)
def test_prf_on_bytes_and_on_a_running_hmac_gives_the_same_bits(key, message, num_bits):
    """prf keyed by the key's bytes still takes the message as bytes and
    as a running hmac.HMAC, with the same bits as hmac.new."""
    want = _hmac_stream(key, message, num_bits)
    assert prf(key, message, num_bits) == want
    assert prf(key, hmac.new(key, message, hashlib.sha256), num_bits) == want


def test_key_pads_are_left_unused():
    """Finishing a label copies the pads: the same pads give the same
    label twice."""
    pads = key_pads(b"k" * 70)
    first = [prf(pads, b"m", 300), prf(pads, b"m", 300)]
    assert first[0] == first[1] == _hmac_stream(b"k" * 70, b"m", 300)

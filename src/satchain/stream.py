"""Seeded integer streams, bit for bit those of numpy's default generator.

``Stream(entropy).integers(low, high)`` draws what
``numpy.random.default_rng(numpy.random.SeedSequence(entropy)).integers(low, high)``
draws, call for call: `SeedSequence`'s entropy mixing into a four-word pool,
O'Neill's PCG64 (a 128-bit LCG with XSL-RR output, which keeps the upper
half of a 64-bit word for the next 32-bit draw) and Lemire's unbiased
bounded-integer rule.  Seeds recorded with numpy replay identically.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list:
    """Entropy as numpy coerces it: each int its 32-bit words, least significant first; 0 is one word."""
    if not isinstance(entropy, int):
        return [word for part in entropy for word in _words(part)]
    if entropy < 0:
        raise ValueError(f"expected non-negative integer, not {entropy}")
    words = [entropy & _M32]
    while entropy := entropy >> 32:
        words.append(entropy & _M32)
    return words


def _hasher(hash_const: int, mult: int):
    """The 32-bit hash that mixes entropy in and state out; each call moves `hash_const` on."""

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def generate_state(entropy, n_words: int, bits: int = 32) -> list:
    """``SeedSequence(entropy).generate_state(n_words, uint32 or uint64)`` as ints."""
    words, hashmix = _words(entropy), _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    state = [output(pool[i % _POOL]) for i in range(n_words * bits // 32)]
    if bits == 64:  # little-endian pairs of 32-bit words
        return [low | high << 32 for low, high in zip(state[::2], state[1::2])]
    return state


def _lemire(draw, bound: int, bits: int) -> int:
    """Unbiased draw from [0, bound) by multiply and reject, from `bits`-bit
    words; a bound of ``2**bits`` gives one raw word, as numpy's special case does."""
    mask = (1 << bits) - 1
    product = draw() * bound
    if product & mask < bound:
        threshold = (1 << bits) % bound
        while product & mask < threshold:
            product = draw() * bound
    return product >> bits


class Stream:
    """numpy's ``default_rng(SeedSequence(entropy))``, for `integers` only."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy):
        seed_high, seed_low, inc_high, inc_low = generate_state(entropy, 4, 64)
        self._inc = ((inc_high << 64 | inc_low) << 1 | 1) & _M128
        # from state 0: one step, add the seed, one more step
        self._state = ((self._inc + (seed_high << 64 | seed_low)) * _PCG_MULT + self._inc) & _M128
        self._half = None  # upper half of the last 64-bit word, owed to the next 32-bit draw

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        word, rotation = (state >> 64 ^ state) & _M64, state >> 122
        return (word >> rotation | word << (64 - rotation)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def integers(self, low: int, high: int) -> int:
        """One draw from [low, high), as ``Generator.integers(low, high)`` with its int64 default."""
        if low < -(1 << 63):
            raise ValueError("low is out of bounds for int64")
        if high > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        if low >= high:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        span = high - low
        if span == 1:  # numpy draws nothing for a single value
            return low
        if span <= 1 << 32:
            return low + _lemire(self._next32, span, 32)
        return low + _lemire(self._next64, span, 64)

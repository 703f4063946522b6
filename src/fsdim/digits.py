"""Exact base-b digit expansions of reals in [0,1).

A real is described by a RealSpec and consumed as a DigitStream: a total,
position-indexed accessor for the canonical expansion (the one that does not
end in infinitely many (b-1) digits). All arithmetic on values is exact
rational arithmetic; floats never appear in any decision path.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import count, islice

from .errors import (
    FsdimError,
    InsufficientDigits,
    InvalidBase,
    InvalidDigit,
    SpecOutOfRange,
)

MIN_BASE = 2
MAX_BASE = 10

#: the largest precision n (delta = base**-n, or a profile's or estimate's
#: n_max) any entry point accepts. Above it the work (base**n, n digits of x,
#: n levels of search) is refused with an error before it starts; acceptance
#: criterion 8 reads Champernowne at n = 10,000
MAX_PRECISION = 100_000


def check_base(base: int) -> None:
    if not isinstance(base, int) or not (MIN_BASE <= base <= MAX_BASE):
        raise InvalidBase(f"base must be an integer in [{MIN_BASE}, {MAX_BASE}], got {base!r}")


def check_precision(n: int) -> None:
    if n > MAX_PRECISION:
        raise FsdimError(f"precision {n} exceeds the largest supported, {MAX_PRECISION}")


def check_scale(base: int, n: int) -> None:
    """Refuse a base or an exponent n that delta = base**-n may not have."""
    check_base(base)
    if n < 0:
        raise FsdimError(f"n must be >= 0, got {n}")
    check_precision(n)


def inverse_power(base: int, n: int) -> Fraction:
    """delta = base**-n, built only once `check_scale` passes."""
    check_scale(base, n)
    return Fraction(1, base ** n)


def content_lines(lines):
    """(line number, text) of each line that is not blank once its '#'
    comment is cut: the one reader of every input file format."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def str_to_digits(w: str, base: int) -> list[int]:
    """Validate a digit string over sigma_b and return it as a list of ints."""
    check_base(base)
    out = []
    for ch in w:
        d = ord(ch) - 48
        if not (0 <= d < base):
            raise InvalidDigit(f"digit {ch!r} not in alphabet of base {base}")
        out.append(d)
    return out


_DIGIT_CHARS = bytes.maketrans(bytes(range(MAX_BASE)), b"0123456789")


def digits_to_str(digits) -> str:
    return bytes(digits).translate(_DIGIT_CHARS).decode("ascii")


#: digits per int() call: from Python 3.11, int() refuses a numeral of more
#: than 4,300 digits in a base that is not a power of two
_INT_PIECE = 4000


def _numeral_to_int(w: str, base: int) -> int:
    """The integer whose base-b numeral is w, of any length: the package's
    one int() conversion with a base. A w longer than one piece must be
    plain digits; a shorter one may have what int() allows, such as a sign."""
    if len(w) <= _INT_PIECE:
        return int(w or "0", base)
    if not (w.isascii() and w.isdigit()):
        raise ValueError(f"not a base-{base} numeral")
    num = 0
    for i in range(0, len(w), _INT_PIECE):
        piece = w[i : i + _INT_PIECE]
        num = num * base ** len(piece) + int(piece, base)
    return num


def _decimal(text: str) -> int:
    """A decimal integer literal of any length: a field of rat:P/Q or of a
    P/Q delta."""
    if not text:
        raise ValueError("empty numeral")
    return _numeral_to_int(text, 10)


def digits_to_int(digits, base: int) -> int:
    """The integer whose base-b numeral is `digits`, most significant first."""
    return _numeral_to_int(digits_to_str(digits), base)


def real_value(w: str, base: int) -> Fraction:
    """Value of a finite digit string: sum of w[i] * base**-(i+1).

    The empty string has value 0.
    """
    check_base(base)
    if w.strip("0123456789"[:base]):
        str_to_digits(w, base)  # raises InvalidDigit, naming the character
    return Fraction(_numeral_to_int(w, base), base ** len(w))


def comp(w: str, base: int) -> str:
    """Positionwise complement: each digit d becomes base-1-d."""
    digs = str_to_digits(w, base)
    return digits_to_str(base - 1 - d for d in digs)


class DigitStream:
    """Canonical base-b expansion read one digit at a time.

    This is the one class that holds digits: those already known sit in
    `buffer`, a bytearray, and more are drawn on demand from `source`, an
    iterator of digits. `buffer` only grows, in place, so a caller may keep
    it and index it; callers never write to it, and a read past its end goes
    through `digit`. Reading past the point where the source runs dry raises
    InsufficientDigits. `value` is the exact rational value when known, else
    None (digit-only streams: files, champernowne). The two questions about
    the point, `is_zero_from` and `compare`, are answered from the value when
    there is one, and else from exactly the digits that decide them.
    """

    origin = "<digits>"

    def __init__(self, base: int, source=(), digits=b"", value: Fraction | None = None):
        self.base = base
        self.value = value
        self.buffer = bytearray(digits)
        self._source = iter(source)

    def _fill(self, m: int) -> None:
        digits = self.buffer
        digits.extend(islice(self._source, m - len(digits)))
        if len(digits) < m:
            raise InsufficientDigits(f"{self.origin} supplies {len(digits)} digits, {m} requested")

    def digit(self, i: int) -> int:
        try:
            return self.buffer[i]
        except IndexError:  # cheaper than a length test on the hot path
            self._fill(i + 1)
            return self.buffer[i]

    def available(self, m: int) -> int:
        """How many of the first m digits exist: m, or fewer for a source
        that runs dry first."""
        if m > len(self.buffer):
            try:
                self._fill(m)
            except InsufficientDigits:
                return len(self.buffer)
        return m

    def prefix(self, m: int) -> list[int]:
        if m > len(self.buffer):
            self._fill(m)
        return list(self.buffer[:m])

    def prefix_str(self, m: int) -> str:
        return digits_to_str(self.prefix(m))

    def is_zero_from(self, m: int) -> bool:
        """Whether every digit at index >= m is zero (the expansion terminates).

        An exact value p/q in lowest terms ends by m iff x * b**m is an
        integer, that is iff q divides b**m: one modular power. A digit-only
        stream reads on to its first nonzero digit from m; a file whose
        digits from m are all zeros decides nothing and raises
        InsufficientDigits, naming it.
        """
        if self.value is not None:
            return pow(self.base, m, self.value.denominator) == 0
        return not any(map(self.digit, count(m)))

    def compare(self, r: Fraction) -> int:
        """Exact three-way comparison of this real against a rational r.

        Returns -1, 0 or +1. A digit-only stream doubles the prefix it reads,
        up to the digits it has, until the cylinder [lo, lo + b**-m) of the
        reals that share it separates from r. A finite source, such as a
        digit file, raises InsufficientDigits only when r lies in the
        cylinder of all its digits, which they do not decide. Champernowne's
        constant, the one infinite digit-only stream, is irrational, so it is
        not r and the cylinder separates once b**-m <= |x - r|.
        """
        if self.value is not None:
            return (self.value > r) - (self.value < r)
        p, q = r.numerator, r.denominator
        m = 8
        while True:
            have = self.available(m)
            # x lies in [N, N + 1) / b**have and r = p / q: compare in integers
            low, scaled = digits_to_int(self.prefix(have), self.base) * q, p * self.base ** have
            if scaled < low:
                return 1
            if scaled >= low + q:
                return -1
            if have < m:
                self._fill(m)  # raises InsufficientDigits, naming the source
            m *= 2


class FractionStream(DigitStream):
    """Canonical expansion of an exact rational in [0,1) by long division.

    Long division yields exactly the expansion that never ends in all (b-1)s:
    terminating rationals get a tail of zeros.
    """

    def __init__(self, value: Fraction, base: int):
        check_base(base)
        value = Fraction(value)
        if not (0 <= value < 1):
            raise SpecOutOfRange(f"value {value} not in [0,1)")
        super().__init__(base, _long_division(value.numerator, value.denominator, base),
                         value=value)


def _long_division(rem: int, den: int, base: int):
    while True:
        d, rem = divmod(rem * base, den)
        yield d


class ChampernowneStream(DigitStream):
    """Base-b Champernowne word: the concatenation of the numerals 1, 2, 3, ..."""

    def __init__(self, base: int):
        check_base(base)
        super().__init__(base, _numerals(base))


def _numerals(base: int):
    for n in count(1):
        rep = []
        while n:
            n, d = divmod(n, base)
            rep.append(d)
        yield from reversed(rep)


class FileDigitStream(DigitStream):
    """Digits loaded from a file; a finite prefix of an otherwise unknown real.

    Access past the available digits raises InsufficientDigits.
    """

    def __init__(self, digits: list[int], base: int, origin: str = "<digits>"):
        check_base(base)
        for d in digits:
            if not (0 <= d < base):
                raise InvalidDigit(f"digit {d} out of range for base {base} in {origin}")
        super().__init__(base, digits=digits)
        self.origin = origin

    @classmethod
    def from_file(cls, path: str, base: int) -> "FileDigitStream":
        digits = []
        with open(path, "r", encoding="ascii") as fh:
            for _, line in content_lines(fh):
                for ch in "".join(line.split()):
                    if not ch.isdigit():
                        raise InvalidDigit(f"non-digit character {ch!r} in {path}")
                    digits.append(ord(ch) - 48)
        return cls(digits, base, origin=path)


class RealSpec(namedtuple("RealSpec", "kind numerator denominator pattern path",
                          defaults=(0, 1, "", ""))):
    """A real number in [0,1) given symbolically.

    kind is one of "rational", "periodic", "dyadic", "champernowne",
    "digitfile"; payload fields are used per kind.
    """

    __slots__ = ()

    @classmethod
    def rational(cls, numerator: int, denominator: int) -> "RealSpec":
        if denominator <= 0 or numerator < 0 or numerator >= denominator:
            raise SpecOutOfRange(f"rational {numerator}/{denominator} not in [0,1)")
        return cls("rational", numerator=numerator, denominator=denominator)

    @classmethod
    def periodic(cls, pattern: str) -> "RealSpec":
        if not pattern:
            raise SpecOutOfRange("periodic pattern must be nonempty")
        return cls("periodic", pattern=pattern)

    @classmethod
    def dyadic(cls, w: str) -> "RealSpec":
        return cls("dyadic", pattern=w)

    @classmethod
    def champernowne(cls) -> "RealSpec":
        return cls("champernowne")

    @classmethod
    def digitfile(cls, path: str) -> "RealSpec":
        return cls("digitfile", path=path)

    @classmethod
    def parse(cls, text: str) -> "RealSpec":
        """Parse the CLI grammar: rat:P/Q, periodic:W, dyadic:W, champernowne,
        digitfile:PATH."""
        if text == "champernowne":
            return cls.champernowne()
        head, sep, rest = text.partition(":")
        if not sep:
            raise FsdimError(f"bad real spec {text!r}")
        if head == "rat":
            p, slash, q = rest.partition("/")
            if not slash:
                raise FsdimError(f"bad rational spec {text!r}, want rat:P/Q")
            try:
                return cls.rational(_decimal(p), _decimal(q))
            except ValueError:
                raise FsdimError(f"bad rational spec {text!r}") from None
        if head == "periodic":
            return cls.periodic(rest)
        if head == "dyadic":
            return cls.dyadic(rest)
        if head == "digitfile":
            return cls.digitfile(rest)
        raise FsdimError(f"unknown real spec kind {head!r}")

    def exact_value(self, base: int) -> Fraction | None:
        """Exact rational value when the spec determines one, else None."""
        check_base(base)
        if self.kind == "rational":
            return Fraction(self.numerator, self.denominator)
        if self.kind == "periodic":
            digs = str_to_digits(self.pattern, base)
            value = Fraction(digits_to_int(digs, base), base ** len(digs) - 1)
            if value >= 1:
                raise SpecOutOfRange(f"periodic pattern {self.pattern!r} has value 1")
            return value
        if self.kind == "dyadic":
            return real_value(self.pattern, base)
        return None

    def stream(self, base: int) -> DigitStream:
        value = self.exact_value(base)
        if value is not None:
            return FractionStream(value, base)
        if self.kind == "champernowne":
            return ChampernowneStream(base)
        if self.kind == "digitfile":
            return FileDigitStream.from_file(self.path, base)
        raise FsdimError(f"unknown spec kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "rational":
            return f"rat:{self.numerator}/{self.denominator}"
        if self.kind in ("periodic", "dyadic"):
            return f"{self.kind}:{self.pattern}"
        if self.kind == "digitfile":
            return f"digitfile:{self.path}"
        return self.kind


def seq_digits(spec: RealSpec, base: int, count: int) -> str:
    """First `count` digits of the canonical base-b expansion of the spec."""
    if count < 0:
        raise FsdimError(f"count must be >= 0, got {count}")
    return spec.stream(base).prefix_str(count)


def floor_log(base: int, q: int) -> tuple[int, int]:
    """(m, base**m) for the largest m with base**m <= q, for base >= 2 and
    q >= 1, by repeated squaring: O(log m) big products."""
    powers = [base]  # base**(2**k) up to q
    while powers[-1] ** 2 <= q:
        powers.append(powers[-1] ** 2)
    m, power = 0, 1
    for k in range(len(powers) - 1, -1, -1):  # the binary digits of m, largest first
        if power * powers[k] <= q:
            power *= powers[k]
            m += 1 << k
    return m, power


def delta_exponent(delta: Fraction, base: int) -> int | None:
    """n such that delta == base**-n, or None when delta is not of that form."""
    check_base(base)  # floor_log never ends for a base below 2
    if delta.numerator != 1:
        return None
    n, power = floor_log(base, delta.denominator)
    return n if power == delta.denominator else None


def parse_delta(text: str, base: int) -> Fraction:
    """The shorthand 'b^-n' / '^-n' or an exact rational 'P/Q'; `PrecisionQuery` checks its range."""
    if "^-" in text:
        head, _, exp = text.partition("^-")
        if head not in ("", "b", str(base)):
            raise FsdimError(f"bad delta {text!r}")
        try:
            n = int(exp)
        except ValueError:
            raise FsdimError(f"bad delta exponent in {text!r}") from None
        return inverse_power(base, n)
    p, slash, q = text.partition("/")
    try:
        return Fraction(_decimal(p), _decimal(q)) if slash else Fraction(_decimal(p))
    except (ValueError, ZeroDivisionError):
        raise FsdimError(f"bad delta {text!r}") from None

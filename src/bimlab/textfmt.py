"""Line-oriented text formats for transducers and bimachines.

Both formats are versioned (`transducer v1`, `bimachine v1`), UTF-8 with LF
line endings, and emit in canonical order so that parse/emit round-trips are
byte-stable. Words are `.`-joined tokens; `-` stands for the empty word and,
in arc input position, for an epsilon input. `Alphabet` rejects tokens that
would collide with this syntax, so every constructible machine round-trips.
"""

from __future__ import annotations

from itertools import chain

from .bimachine import Bimachine, PsiTable, psi_cells
from .errors import FormatError
from .fsm import Alphabet, Dfa, Word
from .transducer import Arc, Transducer


def word_from_text(text: str) -> Word:
    """Parse a `.`-joined token word; '' and '-' denote the empty word."""
    if text in ("", "-"):
        return ()
    parts = tuple(text.split("."))
    if any(not p for p in parts):
        raise ValueError(f"malformed word {text!r}")
    return parts


def word_to_text(word: Word) -> str:
    return ".".join(word) if word else "-"


# Lines are split one chunk at a time, so no list of all the file's lines is
# built. Each chunk ends just after a "\n", which is a line break for
# ``str.splitlines`` too, so the numbering is that of ``text.splitlines()``.
_CHUNK = 1 << 16


def _chunks(text: str):
    start, size = 0, len(text)
    while start < size:
        cut = text.find("\n", start + _CHUNK)
        end = size if cut < 0 else cut + 1
        yield text[start:end]
        start = end


def _raw_lines(text: str):
    """(line_no, line) for every line of text, numbered from 1."""
    return enumerate(chain.from_iterable(map(str.splitlines, _chunks(text))), 1)


class _Parser:
    """Reads a file's nonblank lines, with comments stripped, as
    ``(line_no, fields)`` items with one item of lookahead."""

    def __init__(self, text: str):
        self.lines = _raw_lines(text)
        self.last = 0  # line of the last item read
        self._advance()

    def _advance(self) -> None:
        """Make the next nonblank line the lookahead; None at end of file."""
        for line_no, raw in self.lines:
            fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if fields:
                self.item = (line_no, fields)
                return
        self.item = None

    def header(self, kind: str) -> None:
        line_no, fields = self.next()
        if fields != [kind, "v1"]:
            raise FormatError(line_no, f"expected header '{kind} v1'")

    def peek(self):
        return self.item

    def here(self) -> int:
        """Line of the next item; at end of file the last line read (0 if none)."""
        return self.last if self.item is None else self.item[0]

    def next(self, expect: str | None = None):
        item = self.item
        if item is None:
            raise FormatError(self.here(), f"unexpected end of file (wanted {expect})")
        self.last = item[0]
        self._advance()
        if expect is not None and item[1][0] != expect:
            raise FormatError(item[0], f"expected {expect!r}, got {item[1][0]!r}")
        return item

    def section(self, keyword: str):
        """Yield the fields of the lines from here on that start with keyword,
        up to the first that does not, which becomes the lookahead. ``last``
        is the line of the fields yielded last.

        Sections hold the Θ(k^{2n}) psi lines, so this reads the raw lines
        itself, one split per line, rather than through ``_advance``."""
        item = self.item
        if item is None or item[1][0] != keyword:
            return
        self.last = item[0]
        yield item[1]
        for line_no, raw in self.lines:
            fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if fields:
                if fields[0] != keyword:
                    self.item = (line_no, fields)
                    return
                self.last = line_no
                yield fields
        self.item = None

    def finish(self, keyword: str) -> None:
        """Reject what is left after the last section (its lines start with keyword)."""
        if self.peek() is not None:
            self.next(keyword)


class _Memo(dict):
    """One field's parsed values in one section, keyed by the field's text.

    It fills on demand, never from a declared count. Callers look a text up
    with ``get`` and call ``read`` on a miss, which runs the checked parse, so
    an error keeps its line and message, and a spelling such as ``07`` or
    ``+1`` parses as ``int()`` does. It lives for one parse call.
    """

    def __init__(self, parse, *args):
        super().__init__()
        self.parse, self.args = parse, args

    def read(self, line_no: int, text: str):
        value = self[text] = self.parse(line_no, text, *self.args)
        return value


def _parse_int(line_no: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(line_no, f"bad {what} {text!r}") from None


def _parse_state(line_no: int, text: str, count: int, what: str) -> int:
    value = _parse_int(line_no, text, what)
    if not 0 <= value < count:
        raise FormatError(line_no, f"{what} {value} out of range (states {count})")
    return value


def _parse_word(line_no: int, text: str, alphabet: Alphabet, what: str) -> Word:
    try:
        word = word_from_text(text)
    except ValueError as exc:
        raise FormatError(line_no, str(exc)) from None
    for tok in word:
        if tok not in alphabet:
            raise FormatError(line_no, f"unknown {what} token {tok!r}")
    return word


def _parse_alphabet(item: tuple[int, list[str]]) -> Alphabet:
    line_no, fields = item
    try:
        return Alphabet(tuple(fields[1:]))
    except ValueError as exc:
        raise FormatError(line_no, str(exc)) from None


def emit_transducer(t: Transducer) -> str:
    lines = ["transducer v1"]
    lines.append("alphabet " + " ".join(t.input_alphabet.symbols))
    lines.append("oalphabet " + " ".join(t.output_alphabet.symbols))
    lines.append(f"states {t.state_count}")
    lines.append(("initial " + " ".join(map(str, sorted(t.initial)))).rstrip())
    lines.append(("final " + " ".join(map(str, sorted(t.final)))).rstrip())
    for arc in t.arcs:
        inp = arc.inp if arc.inp is not None else "-"
        lines.append(f"arc {arc.src} {arc.dst} {inp} {word_to_text(arc.out)}")
    return "\n".join(lines) + "\n"


def parse_transducer(text: str) -> Transducer:
    parser = _Parser(text)
    parser.header("transducer")
    alphabet = _parse_alphabet(parser.next("alphabet"))
    oalphabet = alphabet
    item = parser.peek()
    if item and item[1][0] == "oalphabet":
        oalphabet = _parse_alphabet(parser.next())
    line_no, fields = parser.next("states")
    if len(fields) != 2:
        raise FormatError(line_no, "expected 'states <count>'")
    count = _parse_int(line_no, fields[1], "state count")
    line_no, fields = parser.next("initial")
    initial = frozenset(_parse_state(line_no, f, count, "initial state") for f in fields[1:])
    line_no, fields = parser.next("final")
    final = frozenset(_parse_state(line_no, f, count, "final state") for f in fields[1:])
    sources = _Memo(_parse_state, count, "arc source")
    targets = _Memo(_parse_state, count, "arc target")
    outputs = _Memo(_parse_word, oalphabet, "output")
    arcs = []
    for fields in parser.section("arc"):
        try:
            _, src_text, dst_text, inp, out_text = fields
        except ValueError:
            raise FormatError(parser.last, "expected 'arc <src> <dst> <in> <out>'") from None
        src = sources.get(src_text)
        if src is None:
            src = sources.read(parser.last, src_text)
        dst = targets.get(dst_text)
        if dst is None:
            dst = targets.read(parser.last, dst_text)
        if inp == "-":
            inp = None
        elif inp not in alphabet:
            raise FormatError(parser.last, f"unknown input token {inp!r}")
        out = outputs.get(out_text)
        if out is None:
            out = outputs.read(parser.last, out_text)
        arcs.append(Arc(src, inp, out, dst))
    parser.finish("arc")
    return Transducer(alphabet, oalphabet, count, initial, final, tuple(arcs))


def emit_bimachine(b: Bimachine) -> str:
    alphabet = b.left.alphabet
    lines = ["bimachine v1"]
    lines.append("alphabet " + " ".join(alphabet.symbols))
    lines.append("oalphabet " + " ".join(b.output_alphabet.symbols))
    for side, arc_word, dfa in (("left", "larc", b.left), ("right", "rarc", b.right)):
        lines.append(f"{side} states {dfa.state_count} start {dfa.start}")
        for state, row in enumerate(dfa.delta):
            for tok, target in zip(alphabet.symbols, row):
                lines.append(f"{arc_word} {state} {tok} {target}")
    if b.empty_word_output is not None:
        lines.append(f"epsout {word_to_text(b.empty_word_output)}")
    # The table's cell order is the emitted order: left state, letter, right
    # state. Rows repeat, so each distinct row formats its "<right> <out>"
    # fields once.
    psi = b.psi
    cells, width = psi.cells, psi.right_count
    texts = [word_to_text(word) for word in psi.words]
    fields_of: dict[bytes, list[str]] = {}
    base = 0
    for l in range(psi.left_count):
        for tok in psi.alphabet.symbols:
            row = cells[base : base + width]
            base += width
            key = row.tobytes()
            fields = fields_of.get(key)
            if fields is None:
                fields = fields_of[key] = [f"{r} {texts[v]}" for r, v in enumerate(row) if v >= 0]
            if fields:
                head = f"psi {l} {tok} "
                lines.append(head + ("\n" + head).join(fields))
    return "\n".join(lines) + "\n"


def _parse_side(parser: _Parser, side: str, alphabet: Alphabet, arc_word: str) -> Dfa:
    line_no, fields = parser.next(side)
    if len(fields) != 5 or fields[1] != "states" or fields[3] != "start":
        raise FormatError(line_no, f"expected '{side} states <count> start <id>'")
    count = _parse_int(line_no, fields[2], "state count")
    start = _parse_state(line_no, fields[4], count, "start state")
    sources = _Memo(_parse_state, count, "arc source")
    targets = _Memo(_parse_state, count, "arc target")
    delta: dict[tuple[int, str], int] = {}
    for fields in parser.section(arc_word):
        try:
            _, src_text, tok, dst_text = fields
        except ValueError:
            raise FormatError(
                parser.last, f"expected '{arc_word} <state> <token> <state>'"
            ) from None
        src = sources.get(src_text)
        if src is None:
            src = sources.read(parser.last, src_text)
        if tok not in alphabet:
            raise FormatError(parser.last, f"unknown token {tok!r}")
        dst = targets.get(dst_text)
        if dst is None:
            dst = targets.read(parser.last, dst_text)
        if (src, tok) in delta:
            raise FormatError(parser.last, f"duplicate transition ({src}, {tok})")
        delta[(src, tok)] = dst
    for state in range(count):
        for tok in alphabet.symbols:
            if (state, tok) not in delta:
                raise FormatError(
                    parser.here(),
                    f"{side} automaton is not total: missing ({state}, {tok})",
                )
    rows = tuple(
        tuple(delta[(state, tok)] for tok in alphabet.symbols) for state in range(count)
    )
    return Dfa(alphabet, count, start, rows)


def parse_bimachine(text: str) -> Bimachine:
    parser = _Parser(text)
    parser.header("bimachine")
    alphabet = _parse_alphabet(parser.next("alphabet"))
    oalphabet = _parse_alphabet(parser.next("oalphabet"))
    left = _parse_side(parser, "left", alphabet, "larc")
    right = _parse_side(parser, "right", alphabet, "rarc")
    empty_out: Word | None = None
    item = parser.peek()
    if item and item[1][0] == "epsout":
        line_no, fields = parser.next()
        if len(fields) != 2:
            raise FormatError(line_no, "expected 'epsout <word>'")
        empty_out = _parse_word(line_no, fields[1], oalphabet, "output")
    rights = _Memo(_parse_state, right.state_count, "right state")
    ids: dict[Word, int] = {}
    outputs = _Memo(lambda line_no, text: ids.setdefault(
        _parse_word(line_no, text, oalphabet, "output"), len(ids)))
    letters, width = len(alphabet), right.state_count
    column = {tok: pos for pos, tok in enumerate(alphabet.symbols)}
    cells = psi_cells(left.state_count, letters, width)
    # This loop runs once per psi entry, Θ(k^{2n}) times. Consecutive lines
    # mostly share their left state and token (emitted files write a row at a
    # time), so those two are checked, and the row's first cell found, only
    # when their text differs from the line before's.
    l_text = tok = None
    for fields in parser.section("psi"):
        try:
            _, l_new, tok_new, r_text, out_text = fields
        except ValueError:
            raise FormatError(
                parser.last, "expected 'psi <left> <token> <right> <out>'"
            ) from None
        if l_new != l_text or tok_new != tok:
            l = _parse_state(parser.last, l_new, left.state_count, "left state")
            pos = column.get(tok_new)
            if pos is None:
                raise FormatError(parser.last, f"unknown token {tok_new!r}")
            base = (l * letters + pos) * width
            l_text, tok = l_new, tok_new
        r = rights.get(r_text)
        if r is None:
            r = rights.read(parser.last, r_text)
        cell = base + r
        if cells[cell] != -1:
            raise FormatError(parser.last, f"duplicate psi entry ({l}, {tok}, {r})")
        out = outputs.get(out_text)
        if out is None:
            out = outputs.read(parser.last, out_text)
        cells[cell] = out
    parser.finish("psi")
    psi = PsiTable(alphabet, left.state_count, width, cells, tuple(ids))
    return Bimachine(left, right, psi, empty_out, oalphabet)


def load_machine(text: str) -> Transducer | Bimachine:
    """Dispatch on the header line."""
    item = _Parser(text).peek()
    if item is None:
        raise FormatError(0, "empty machine file")
    line_no, fields = item
    if fields[0] == "transducer":
        return parse_transducer(text)
    if fields[0] == "bimachine":
        return parse_bimachine(text)
    raise FormatError(line_no, f"unknown machine kind {fields[0]!r}")

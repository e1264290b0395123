"""Line-oriented text formats for transducers and bimachines.

Both formats are versioned (`transducer v1`, `bimachine v1`), UTF-8 with LF
line endings, and emit in canonical order so that parse/emit round-trips are
byte-stable. Words are `.`-joined tokens; `-` stands for the empty word and,
in arc input position, for an epsilon input. `Alphabet` rejects tokens that
would collide with this syntax, so every constructible machine round-trips.
"""

from __future__ import annotations

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


def _lines(text: str):
    """Yield (line_no, fields) for nonblank lines, with comments stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if fields:
            yield line_no, fields


class _Parser:
    """Reads the items of ``_lines`` one at a time, with one item of
    lookahead, so no list of the file's lines is ever built."""

    def __init__(self, text: str, kind: str):
        self.items = _lines(text)
        self.item = next(self.items, None)  # the lookahead; None at end of file
        self.last = 0  # line of the last item read
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
        self.item = next(self.items, None)
        if expect is not None and item[1][0] != expect:
            raise FormatError(item[0], f"expected {expect!r}, got {item[1][0]!r}")
        return item

    def section(self, keyword: str):
        """Yield the items from here on that start with keyword, up to the
        first that does not, which stays the lookahead."""
        items, item = self.items, self.item
        while item is not None and item[1][0] == keyword:
            self.last = item[0]
            yield item
            item = next(items, None)
        self.item = item

    def finish(self, keyword: str) -> None:
        """Reject what is left after the last section (its lines start with keyword)."""
        if self.peek() is not None:
            self.next(keyword)


class _Memo(dict):
    """One field's parsed values in one section, keyed by the field's text.

    It fills on demand, never from a declared count. A miss runs the checked
    parse, so an error keeps its line and message, and a spelling such as
    ``07`` or ``+1`` parses as ``int()`` does. It lives for one parse call.
    """

    def __init__(self, parse, *args):
        super().__init__()
        self.parse, self.args = parse, args

    def read(self, line_no: int, text: str):
        value = self.get(text)
        if value is None:
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
    parser = _Parser(text, "transducer")
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
    for line_no, fields in parser.section("arc"):
        if len(fields) != 5:
            raise FormatError(line_no, "expected 'arc <src> <dst> <in> <out>'")
        src = sources.read(line_no, fields[1])
        dst = targets.read(line_no, fields[2])
        if fields[3] == "-":
            inp = None
        else:
            inp = fields[3]
            if inp not in alphabet:
                raise FormatError(line_no, f"unknown input token {inp!r}")
        out = outputs.read(line_no, fields[4])
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
    for line_no, fields in parser.section(arc_word):
        if len(fields) != 4:
            raise FormatError(line_no, f"expected '{arc_word} <state> <token> <state>'")
        src = sources.read(line_no, fields[1])
        tok = fields[2]
        if tok not in alphabet:
            raise FormatError(line_no, f"unknown token {tok!r}")
        dst = targets.read(line_no, fields[3])
        if (src, tok) in delta:
            raise FormatError(line_no, f"duplicate transition ({src}, {tok})")
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
    parser = _Parser(text, "bimachine")
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
    lefts = _Memo(_parse_state, left.state_count, "left state")
    rights = _Memo(_parse_state, right.state_count, "right state")
    ids: dict[Word, int] = {}
    outputs = _Memo(lambda line_no, text: ids.setdefault(
        _parse_word(line_no, text, oalphabet, "output"), len(ids)))
    letters, width = len(alphabet), right.state_count
    column = {tok: pos for pos, tok in enumerate(alphabet.symbols)}
    cells = psi_cells(left.state_count, letters, width)
    # This loop runs once per psi entry, Θ(k^{2n}) times, so it looks a memo
    # up inline and calls ``read`` only on a miss.
    for line_no, fields in parser.section("psi"):
        if len(fields) != 5:
            raise FormatError(line_no, "expected 'psi <left> <token> <right> <out>'")
        l = lefts.get(fields[1])
        if l is None:
            l = lefts.read(line_no, fields[1])
        tok = fields[2]
        pos = column.get(tok)
        if pos is None:
            raise FormatError(line_no, f"unknown token {tok!r}")
        r = rights.get(fields[3])
        if r is None:
            r = rights.read(line_no, fields[3])
        cell = (l * letters + pos) * width + r
        if cells[cell] != -1:
            raise FormatError(line_no, f"duplicate psi entry ({l}, {tok}, {r})")
        out = outputs.get(fields[4])
        if out is None:
            out = outputs.read(line_no, fields[4])
        cells[cell] = out
    parser.finish("psi")
    psi = PsiTable(alphabet, left.state_count, width, cells, tuple(ids))
    return Bimachine(left, right, psi, empty_out, oalphabet)


def load_machine(text: str) -> Transducer | Bimachine:
    """Dispatch on the header line."""
    for line_no, fields in _lines(text):
        if fields[0] == "transducer":
            return parse_transducer(text)
        if fields[0] == "bimachine":
            return parse_bimachine(text)
        raise FormatError(line_no, f"unknown machine kind {fields[0]!r}")
    raise FormatError(0, "empty machine file")

"""Line-oriented text formats for transducers and bimachines.

Both formats are versioned (`transducer v1`, `bimachine v1`), UTF-8 with LF
line endings, and emit in canonical order so that parse/emit round-trips are
byte-stable. Words are `.`-joined tokens; `-` stands for the empty word and,
in arc input position, for an epsilon input. `Alphabet` rejects tokens that
would collide with this syntax, so every constructible machine round-trips.
"""

from __future__ import annotations

import re
from array import array

from .bimachine import Bimachine, RowInterner
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


# Lines are split one block at a time, so no list of all the file's lines is
# built. A block ends just after a "\n", which is a line break for
# ``str.splitlines`` too, so the numbering is that of ``text.splitlines()``.
_BLOCK = 1 << 16


def _block_end(text: str, pos: int, size: int) -> int:
    """End of the block from pos: just after the first "\n" at or beyond
    pos + size, or the end of the text."""
    cut = text.find("\n", pos + size)
    return len(text) if cut < 0 else cut + 1


def _lines(text: str, pos: int, line_no: int):
    """(line_no, pos, line) for each line of text from position pos, which
    starts line line_no. Lines keep their line break. The first block is a
    single "\n"-ended line, and each later block is about as long as the
    text split before it, up to _BLOCK, so a reader that stops early has
    split at most about twice what it took."""
    start = pos
    while pos < len(text):
        end = _block_end(text, pos, min(pos - start, _BLOCK))
        for line in text[pos:end].splitlines(True):
            yield line_no, pos, line
            line_no += 1
            pos += len(line)


class _Parser:
    """Reads a file's nonblank lines, with comments stripped, as
    ``(line_no, fields)`` items with one item of lookahead.

    ``pos`` is the text position of the lookahead's line, so a reader of its
    own can take the text over from there and hand it back with ``seek``."""

    def __init__(self, text: str):
        self.text = text
        self.seek(0, 1)

    def seek(self, pos: int, line_no: int) -> None:
        """Read on from text position pos, the start of line line_no."""
        self.lines = _lines(self.text, pos, line_no)
        self.last = line_no - 1  # line of the last item read
        self._advance()

    def _advance(self) -> None:
        """Make the next nonblank line the lookahead; None at end of file."""
        for line_no, pos, raw in self.lines:
            fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if fields:
                self.item, self.pos = (line_no, fields), pos
                return
        self.item, self.pos = None, len(self.text)

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
        is the line of the fields yielded last."""
        item = self.item
        if item is None or item[1][0] != keyword:
            return
        self.last = item[0]
        yield item[1]
        for line_no, pos, raw in self.lines:
            fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
            if fields:
                if fields[0] != keyword:
                    self.item, self.pos = (line_no, fields), pos
                    return
                self.last = line_no
                yield fields
        self.item, self.pos = None, len(self.text)

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
    """The text of ``b``. Both sides' arc lines name the letters in the
    order of the input alphabet, the file's ``alphabet``: construction has
    put the right automaton's columns in that order."""
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
    lines.append("")
    # The table's cell order is the emitted order: left state, letter, right
    # state. Each distinct row formats its "<right> <out>" lines once; a
    # row's psi lines are then one join, and the text one join of them all.
    psi = b.psi
    texts = [word_to_text(word) for word in psi.words]
    fields = [[""] + [f"{r} {texts[v]}\n" for r, v in row] for row in psi.defined_cells()]
    row_of, slot = psi.row_of, 0
    pieces = ["\n".join(lines)]
    for l in range(psi.left_count):
        for tok in psi.alphabet.symbols:
            i = row_of[slot]
            slot += 1
            if i >= 0:
                pieces.append(f"psi {l} {tok} ".join(fields[i]))
    return "".join(pieces)


# The arc lines of a side with four fields, single spaces, LF endings and
# digits for both states. On such lines ``split()`` splits at each space and
# "\n" only (see ``_ROW``).
_SIDE = {word: re.compile(rf"(?:{word} [0-9]+ [^\s#]+ [0-9]+\n)*") for word in ("larc", "rarc")}


def _canonical_side(parser: _Parser, arc_word: str, alphabet: Alphabet, count: int) -> list[int]:
    """The targets of a side's arc lines from the parser's lookahead on, in
    table order, when those lines are the whole table written as
    ``emit_bimachine`` writes it: the states in order, in each the tokens
    in alphabet order, and every state ``s`` spelled ``str(s)``. The parser
    then reads on after them. Otherwise no targets, and the checked loop
    reads the lines."""
    text, pos, letters = parser.text, parser.pos, len(alphabet)
    end = _SIDE[arc_word].match(text, pos).end()
    fields = text[pos:end].split()
    if not fields or len(fields) != 4 * count * letters:
        return []
    names = list(map(str, range(count)))
    if fields[2::4] != list(alphabet.symbols) * count or any(
            fields[1 + 4 * i :: 4 * letters] != names for i in range(letters)):
        return []
    try:
        targets = list(map(dict(zip(names, range(count))).__getitem__, fields[3::4]))
    except KeyError:  # a target spelled otherwise, or out of range
        return []
    parser.seek(end, parser.peek()[0] + len(targets))
    return targets


def _parse_side(parser: _Parser, side: str, alphabet: Alphabet, arc_word: str) -> Dfa:
    line_no, fields = parser.next(side)
    if len(fields) != 5 or fields[1] != "states" or fields[3] != "start":
        raise FormatError(line_no, f"expected '{side} states <count> start <id>'")
    count = _parse_int(line_no, fields[2], "state count")
    start = _parse_state(line_no, fields[4], count, "start state")
    letters = len(alphabet)
    flat = _canonical_side(parser, arc_word, alphabet, count)
    item = parser.peek()
    if len(flat) < count * letters or (item is not None and item[1][0] == arc_word):
        flat = _checked_side(parser, side, alphabet, arc_word, count, dict(enumerate(flat)))
    rows = tuple(tuple(flat[i : i + letters]) for i in range(0, len(flat), letters))
    return Dfa(alphabet, count, start, rows)


def _checked_side(parser: _Parser, side: str, alphabet: Alphabet, arc_word: str, count: int,
                  cells: dict[int, int]) -> list[int]:
    """Read a side's arc lines from the parser's lookahead on, one at a time,
    into cells, which holds the targets read before them: the whole table.

    Cell src * |Σ| + column of the table. A dict, not a list of the declared
    count * |Σ| cells, so a short file cannot make a large allocation."""
    sources = _Memo(_parse_state, count, "arc source")
    targets = _Memo(_parse_state, count, "arc target")
    letters = len(alphabet)
    column = {tok: pos for pos, tok in enumerate(alphabet.symbols)}
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
        pos = column.get(tok)
        if pos is None:
            raise FormatError(parser.last, f"unknown token {tok!r}")
        dst = targets.get(dst_text)
        if dst is None:
            dst = targets.read(parser.last, dst_text)
        cell = src * letters + pos
        if cell in cells:
            raise FormatError(parser.last, f"duplicate transition ({src}, {tok})")
        cells[cell] = dst
    size = count * letters
    if len(cells) < size:
        # Every key is a distinct cell below size, so one is missing, and the
        # first lies within the first len(cells) + 1 cells.
        state, pos = divmod(next(i for i in range(size) if i not in cells), letters)
        raise FormatError(
            parser.here(),
            f"{side} automaton is not total: missing ({state}, {alphabet.symbols[pos]})",
        )
    return list(map(cells.__getitem__, range(size)))


# A canonical run of psi lines: lines of five fields, each field followed by
# one space or, the last, by "\n", with no "#", that all share
# "psi <left> <token> ". On such lines ``split()`` is ``split(" ")``, and
# ``splitlines`` breaks only at each "\n", because ``re``'s ``\s`` is
# ``str.isspace``. No field can be read two ways, so a match takes linear time.
_ROW = re.compile(r"psi ([^\s#]+) ([^\s#]+) [^\s#]+ [^\s#]+\n(?:psi \1 \2 [^\s#]+ [^\s#]+\n)*")
# The first line of a canonical run: its prefix "psi <left> <token> ", the
# block prefix "psi <left> ", the left state, the token and the rest.
# ``_ROW`` matches at a position exactly when this does.
_HEAD = re.compile(r"((psi ([^\s#]+) )([^\s#]+) )([^\s#]+ [^\s#]+\n)")


def _pieces(text: str, known: tuple) -> tuple:
    """``known`` with the pieces of its remembered lines appended: their
    text after the first prefix, split at "\n" and the prefix ``known[2]``."""
    return known + (text[known[0] : known[1]].split("\n" + known[2]),)


def _repeat(text: str, start: int, prefix: str, known: tuple) -> int:
    """The end of the text from start if it repeats the remembered lines
    ``known`` with their prefix ``known[2]`` changed to ``prefix`` on every
    line but the first, and the line after it does not start with
    ``prefix``; else -1. ``known[0]`` and ``known[1]`` bound the remembered
    text after its first prefix. The lines are one join of the pieces when
    ``known`` holds them (see ``_pieces``), else one slice and one
    ``replace``; then one comparison."""
    if len(known) > 5:
        lines = ("\n" + prefix).join(known[5])
    else:
        lines = text[known[0] : known[1]].replace("\n" + known[2], "\n" + prefix)
    end = start + len(lines)
    if text.startswith(lines, start) and not text.startswith(prefix, end):
        return end
    return -1


class _PsiRows:
    """Reads a bimachine's psi lines into its output table.

    ``check`` is the checked per-line loop: the only code that reads a psi
    line's right state and output, and the source of every psi error. It
    writes into the rows being written (``RowInterner.row``), which the
    interner's ``table`` interns when the read ends. ``read`` is one fast
    loop over lines written as ``emit_bimachine`` writes them, a row at a
    time; it hands ``check`` each run that no memo finds. From the first
    line the fast loop cannot take, ``check`` reads the rest of the section.
    The fast loop leaves no row being written, so there a row is blank when
    its index is -1.

    A block is the canonical runs of one left state that follow each other.
    A block that repeats the text of a block read before, with only its
    "psi <left> " prefixes changed, and whose left state's rows are all
    blank, gets that block's row indices; the left state is checked once.
    The earlier block must have been read wholly into rows that were blank,
    and only such blocks are remembered. The one compared is the last block
    remembered with the same first line; the text from the block on must be
    its text with the prefix put back on every line, and the line after it
    must not start with the prefix.

    A run is the canonical lines of one row. A run that repeats the last run
    read with the same first line, with only its "psi <left> <token> "
    prefixes changed, and whose row is blank, gets that run's row index: a
    run read into a blank row is interned as soon as it is read, so that it
    can be remembered with its index. It is found with one comparison, as a
    block is; any other run is scanned with ``_ROW`` and checked.

    The earlier lines numbered their words, so the output ids are those a
    line-by-line read gives. Runs and blocks are remembered by their place
    in the text, not by a copy of it. Only the last block compared is also
    held split at its prefixes (``_pieces``): each later block compared with
    it costs one join and one comparison, and a compare with another block
    splits that one in its place. They live for one parse call.
    """

    def __init__(self, left: Dfa, right: Dfa, oalphabet: Alphabet):
        self.interner = RowInterner(left.alphabet, left.state_count, right.state_count)
        self.left_count, self.width = left.state_count, right.state_count
        self.letters = len(left.alphabet)
        self.column = {tok: pos for pos, tok in enumerate(left.alphabet.symbols)}
        self.rights = _Memo(_parse_state, self.width, "right state")
        self.outputs = _Memo(lambda line_no, text: self.interner.word(
            _parse_word(line_no, text, oalphabet, "output")))

    def row(self, line_no: int, l_text: str, tok: str) -> tuple[int, int]:
        """Check a left state and token: the left state, and their row's slot."""
        l = _parse_state(line_no, l_text, self.left_count, "left state")
        pos = self.column.get(tok)
        if pos is None:
            raise FormatError(line_no, f"unknown token {tok!r}")
        return l, l * self.letters + pos

    def check(self, items) -> None:
        """Read ``(line_no, fields)`` items, the fields of psi lines."""
        rights, outputs = self.rights, self.outputs
        row_cells = self.interner.row
        l_text = tok = cells = None
        # This loop runs once per psi line read. The left state and token are
        # checked only when their text changes.
        for line_no, fields in items:
            try:
                _, l_new, tok_new, r_text, out_text = fields
            except ValueError:
                raise FormatError(
                    line_no, "expected 'psi <left> <token> <right> <out>'"
                ) from None
            if l_new != l_text or tok_new != tok:
                l_text, tok = l_new, tok_new
                l, slot = self.row(line_no, l_text, tok)
                cells = row_cells(slot)
            r = rights.get(r_text)
            if r is None:
                r = rights.read(line_no, r_text)
            if cells[r] != -1:
                raise FormatError(line_no, f"duplicate psi entry ({l}, {tok}, {r})")
            out = outputs.get(out_text)
            if out is None:
                out = outputs.read(line_no, out_text)
            cells[r] = out

    def read(self, parser: _Parser) -> None:
        """Read the psi lines from the parser's lookahead on; the parser then
        reads on after them."""
        text, pos, line_no = parser.text, parser.pos, parser.item[0]
        interner, letters = self.interner, self.letters
        row_of = interner.row_of
        blank = array("i", [-1]) * letters
        # A remembered run or block: where its text after its first prefix
        # begins and where it ends, the prefix, its row index or the row
        # indices of its left state, and its line count.
        last: dict[str, tuple] = {}  # runs by their first line
        blocks: dict[tuple[str, str], tuple] = {}  # by token and first line
        split: tuple = (-1,)  # the last block compared, with its pieces
        # The block being read: its first line, where its text begins, its
        # prefix, its left state's first slot and its first line number;
        # None when it cannot be remembered. block_l is its left state's
        # text, and run_tok and slot the token text and slot of the run read.
        block = block_l = run_tok = None
        # A run into a row already written ends the loop: such a file is not
        # written a row at a time.
        while (head := _HEAD.match(text, pos)) is not None:
            prefix, l_prefix, l_text, tok, first = head.groups()
            if l_text != block_l:
                if block is not None:
                    key, begin, l_old, base, first_no = block
                    blocks[key] = (begin, pos, l_old, row_of[base : base + letters],
                                   line_no - first_no)
                block, block_l, run_tok = None, l_text, tok
                l, slot = self.row(line_no, l_text, tok)
                base = l * letters
                if row_of[base : base + letters] == blank:
                    known = blocks.get((tok, first))
                    if known is not None and split[0] != known[0]:
                        split = _pieces(text, known)
                    end = -1 if known is None else _repeat(text, head.end(2), l_prefix, split)
                    if end >= 0:
                        row_of[base : base + letters] = known[3]
                        pos, line_no = end, line_no + known[4]
                        continue
                    block = ((tok, first), head.end(2), l_prefix, base, line_no)
            elif tok != run_tok:
                _, slot = self.row(line_no, l_text, tok)
                run_tok = tok
            if row_of[slot] >= 0:
                break
            known = last.get(first)
            end = -1 if known is None else _repeat(text, head.start(5), prefix, known)
            if end < 0:
                end = _ROW.match(text, pos).end()
                lines = text[pos:end].splitlines()
                self.check(enumerate(map(str.split, lines), line_no))
                known = (head.start(5), end, prefix, interner.intern(interner.begun.pop(slot)),
                         len(lines))
            row_of[slot] = known[3]
            last[first] = known
            pos, line_no = end, line_no + known[4]
        parser.seek(pos, line_no)
        self.check((parser.last, fields) for fields in parser.section("psi"))


def parse_bimachine(text: str) -> Bimachine:
    parser = _Parser(text)
    parser.header("bimachine")
    item = parser.next("alphabet")
    alphabet = _parse_alphabet(item)
    if not alphabet:
        # A side with no letters has no arc lines, so nothing in the file
        # would bound its declared state count.
        raise FormatError(item[0], "a bimachine needs at least one input letter")
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
    rows = _PsiRows(left, right, oalphabet)
    item = parser.peek()
    if item and item[1][0] == "psi":
        rows.read(parser)
    parser.finish("psi")
    return Bimachine(left, right, rows.interner.table(), empty_out, oalphabet)


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

"""Wire formats: words as comma-separated generator indices, group elements
and algebra elements as JSON, distributions as CSV."""

from __future__ import annotations

import json
from fractions import Fraction

from . import hecke, weyl
from .weyl import AffineElement

__all__ = [
    "word_to_str", "parse_word", "element_from_obj", "element_to_json",
    "element_from_json", "hecke_to_obj", "hecke_to_json", "hecke_from_json",
    "parse_fraction", "format_float", "write_csv",
]


def word_to_str(word) -> str:
    return ",".join(str(i) for i in word)


def parse_word(s: str, alphabet=(0, 1, 2)):
    s = s.strip()
    if not s:
        return ()
    out = []
    for k, piece in enumerate(s.split(",")):
        try:
            i = int(piece)
        except ValueError:
            raise ValueError(f"word position {k}: {piece!r} is not an integer")
        if i not in alphabet:
            raise ValueError(f"word position {k}: index {i} not in {alphabet}")
        out.append(i)
    return tuple(out)


def _element_to_obj(w: AffineElement) -> dict:
    return {"mu": [w.mu[0], w.mu[1]], "u": word_to_str(weyl.W0_WORDS[w.u])}


def element_from_obj(obj) -> AffineElement:
    if not isinstance(obj, dict) or "mu" not in obj or "u" not in obj:
        raise ValueError(f"element object needs 'mu' and 'u' fields, got {obj!r}")
    mu = obj["mu"]
    if not (isinstance(mu, (list, tuple)) and len(mu) == 2):
        raise ValueError(f"element field 'mu': expected [m, n], got {mu!r}")
    m, n = (_integer(x, "element field 'mu'") for x in mu)
    word = parse_word(str(obj["u"]), alphabet=(1, 2))
    return AffineElement((m, n), weyl.w0_from_word(word))


def element_to_json(w: AffineElement) -> str:
    return json.dumps(_element_to_obj(w))


def element_from_json(s: str) -> AffineElement:
    return element_from_obj(json.loads(s))


def hecke_to_obj(h: hecke.HeckeElement) -> dict:
    terms = []
    if h.basis == "T":
        items = sorted(h.terms.items(), key=lambda kv: (weyl.length(kv[0]), kv[0].mu, kv[0].u))
        for w, c in items:
            terms.append({"index": _element_to_obj(w), "a": str(c.a), "b": str(c.b)})
    else:
        items = sorted(h.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))
        for (mu, u), c in items:
            terms.append({"index": _element_to_obj(AffineElement(mu, u)),
                          "a": str(c.a), "b": str(c.b)})
    return {"basis": h.basis, "q": str(h.field.q), "terms": terms}


def parse_fraction(value, where: str) -> Fraction:
    """value as a Fraction; an invalid literal or a zero denominator is a
    ValueError naming where."""
    try:
        return Fraction(str(value))
    except ValueError:
        raise ValueError(f"{where}: {value!r} is not a rational number") from None
    except ZeroDivisionError:
        raise ValueError(f"{where}: {value!r} has a zero denominator") from None


def _integer(value, where: str) -> int:
    """value as an int if it is an integral number or numeric string."""
    try:
        x = Fraction(str(value))
        if x.denominator == 1:
            return x.numerator
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{where}: {value!r} is not an integer")


def hecke_to_json(h: hecke.HeckeElement) -> str:
    return json.dumps(hecke_to_obj(h))


def hecke_from_json(s: str) -> hecke.HeckeElement:
    try:
        obj = json.loads(s)
    except json.JSONDecodeError as exc:
        raise ValueError(f"JSON parse error at position {exc.pos}: {exc.msg}")
    for key in ("basis", "q", "terms"):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"algebra element needs field {key!r}")
    basis = obj["basis"]
    if basis not in ("T", "X"):
        raise ValueError(f"field 'basis': expected 'T' or 'X', got {basis!r}")
    if not isinstance(obj["terms"], list):
        raise ValueError(f"field 'terms': expected a list, got {obj['terms']!r}")
    field = hecke.ScalarField(parse_fraction(obj["q"], "field 'q'"))
    pairs = []
    for k, entry in enumerate(obj["terms"]):
        try:
            if not isinstance(entry, dict):
                raise ValueError(f"expected a term object, got {entry!r}")
            el = element_from_obj(entry["index"])
            if "a" not in entry and "b" not in entry:
                raise ValueError("coefficient needs an 'a' or 'b' field (a + b*sqrt(q))")
            c = field.make(parse_fraction(entry.get("a", 0), "field 'a'"),
                           parse_fraction(entry.get("b", 0), "field 'b'"))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"terms[{k}]: {exc}") from None
        pairs.append((el if basis == "T" else (el.mu, el.u), c))
    return (hecke.t_element if basis == "T" else hecke.x_element)(field, pairs)


def format_float(x) -> str:
    return "%.17g" % float(x)


def _csv_field(v) -> str:
    if isinstance(v, float):
        return format_float(v)
    s = str(v)
    if "," in s or s == "" or '"' in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _column_fields(column) -> list:
    """_csv_field of every value of one column, its type tested once: in a
    column of ints or of floats each distinct value is formatted once (zeros
    on their own, as 0.0 == -0.0), and strings are quoted as _csv_field
    quotes them."""
    kinds = set(map(type, column))
    if kinds == {int} or kinds == {float}:
        text = {v: _csv_field(v) for v in set(column)}
        return [text[v] if v else _csv_field(v) for v in column]
    if kinds == {str} and '"' not in "".join(column):
        return [f'"{v}"' if "," in v or not v else v for v in column]
    return list(map(_csv_field, column))


def write_csv(path, header, rows):
    """The CSV text of header and rows, also written to path unless it is
    None; the fields are formatted column by column."""
    columns = [_column_fields(column) for column in zip(*rows, strict=True)]
    text = "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return text

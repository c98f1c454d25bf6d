import json

import pytest

from chamberwalks import hecke as H
from chamberwalks import serialize as S
from chamberwalks import weyl as W


def test_word_round_trip():
    for word in ((), (0,), (0, 1, 2, 1)):
        assert S.parse_word(S.word_to_str(word)) == word
    assert S.parse_word("") == ()
    with pytest.raises(ValueError):
        S.parse_word("0,3")
    with pytest.raises(ValueError):
        S.parse_word("0,x")


def test_element_round_trip(ball4):
    for w in ball4:
        assert S.element_from_json(S.element_to_json(w)) == w
    obj = json.loads(S.element_to_json(W.from_word((0, 1))))
    assert set(obj) == {"mu", "u"}
    with pytest.raises(ValueError):
        S.element_from_obj({"mu": [1]})
    with pytest.raises(ValueError):
        S.element_from_obj({"mu": [1, 2], "u": "0"})  # finite part over {1,2}
    for mu in ([1], [1, 2, 3], 5, "12"):
        with pytest.raises(ValueError, match=r"'mu': expected \[m, n\]"):
            S.element_from_obj({"mu": mu, "u": ""})


def test_hecke_round_trip_exact(field2, ball4):
    F = field2
    h = H.t_element(F, [(w, F.make(1, 1)) for w in list(ball4)[:5]])
    again = S.hecke_from_json(S.hecke_to_json(h))
    assert again == h
    hx = H.t_to_x(h)
    assert S.hecke_from_json(S.hecke_to_json(hx)) == hx


def test_hecke_json_schema(field2):
    obj = S.hecke_to_obj(H.t_generator(field2, 0))
    assert obj["basis"] == "T"
    assert obj["q"] == "2"
    assert obj["terms"][0]["index"] == {"mu": [1, 1], "u": "1,2,1"}
    assert obj["terms"][0]["a"] == "1"


def test_malformed_json_reports_position():
    with pytest.raises(ValueError, match="position"):
        S.hecke_from_json("{bad json")
    with pytest.raises(ValueError, match="terms\\[0\\]"):
        S.hecke_from_json(json.dumps(
            {"basis": "T", "q": "2", "terms": [{"index": {"mu": [0]}}]}
        ))
    with pytest.raises(ValueError, match="terms\\[0\\]"):  # re/im floats are not exact
        S.hecke_from_json(json.dumps({"basis": "T", "q": "2", "terms": [
            {"index": {"mu": [0, 0], "u": "1"}, "re": 0.5, "im": 0.0}]}))
    with pytest.raises(ValueError, match="basis"):
        S.hecke_from_json(json.dumps({"basis": "Y", "q": "2", "terms": []}))


@pytest.mark.parametrize("obj, field", [
    ([], "basis"), ("T", "basis"), ({"q": "2", "terms": []}, "basis"),
    ({"basis": "T", "terms": []}, "q"), ({"basis": "T", "q": "2"}, "terms"),
], ids=["list", "string", "no-basis", "no-q", "no-terms"])
def test_algebra_element_needs_an_object_with_every_field(obj, field):
    with pytest.raises(ValueError, match=f"algebra element needs field '{field}'"):
        S.hecke_from_json(json.dumps(obj))


def test_rational_q_round_trip():
    F = H.ScalarField("5/2")
    h = H.t_generator(F, 1)
    again = S.hecke_from_json(S.hecke_to_json(h))
    assert again.field.q == F.q
    assert again == h


def test_csv_quoting(tmp_path):
    text = S.write_csv(None, ["a", "b"], [("1,2", 0.5), ("", 1.0)])
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == '"1,2",0.5'
    assert lines[2] == '"",1'
    path = tmp_path / "out.csv"
    S.write_csv(path, ["x"], [(1.0,)])
    assert path.read_text() == "x\n1\n"


def test_csv_columns_format_like_single_fields():
    """Columns are formatted by type, each distinct float once; the bytes
    stay those of one field at a time: a quote char in a string column, a
    column of mixed types, and the signed zeros of a float column."""
    rows = [('say "hi"', 0.0, 1, True, 2.5), ("a,b", -0.0, 2.5, None, 2.5),
            ("", 1 / 3, -3, "x,y", 2.5)]
    assert S.write_csv(None, list("abcde"), rows) == (
        "a,b,c,d,e\n"
        '"say ""hi""",0,1,True,2.5\n'
        '"a,b",-0,2.5,None,2.5\n'
        '"",0.33333333333333331,-3,"x,y",2.5\n')
    assert S.write_csv(None, ["a"], []) == "a\n"
    with pytest.raises(ValueError):
        S.write_csv(None, ["a", "b"], [(1, 2), (3,)])


def test_float_precision():
    assert S.format_float(1 / 3) == "0.33333333333333331"

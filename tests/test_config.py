"""Flat key=value config parsing: numbers with pi, tracking, round trips."""

import math

import pytest

from dispersal import ValidationError
from dispersal.config import (
    ExperimentConfig,
    format_resolved,
    load_config,
    parse_config_text,
    parse_number,
)


# --------------------------------------------------------------------- #
# numbers                                                                #
# --------------------------------------------------------------------- #


def test_plain_and_arithmetic_numbers_parse_exactly():
    assert parse_number("0.25") == 0.25
    assert parse_number("-3") == -3.0
    assert parse_number("pi") == math.pi
    assert parse_number("2*pi/1024") == 2.0 * math.pi / 1024
    assert parse_number("-pi/2") == -math.pi / 2
    assert parse_number("1/7") == 1.0 / 7.0
    assert parse_number("(1+2)/4") == 0.75
    assert parse_number(" 1e-3 ") == 1e-3


@pytest.mark.parametrize(
    "bad, message",
    [
        ("two", "cannot parse number"),
        ("2**3", "only digits, pi"),
        ("tau", "only digits, pi"),
        ("__import__('os')", "cannot parse number"),
        ("abs(1)", "only digits, pi"),
        ("1/0", "division by zero"),
        ("1/(2-2)", "division by zero"),
        ("nan", "not finite"),
        ("inf", "not finite"),
        ("-inf", "not finite"),
        ("1e999", "not finite"),
        ("1e308*10", "not finite"),
        # every intermediate value must be finite, not just the result
        ("1/1e999", "not finite"),
        ("1/(1e308*10)", "not finite"),
        ("pi/1e999", "not finite"),
        pytest.param("1" + "0" * 400 + "*1", "not finite", id="integer-beyond-float-range"),
        ("True", "only digits, pi"),
    ],
)
def test_malformed_numbers_are_rejected(bad, message):
    with pytest.raises(ValidationError, match=message):
        parse_number(bad)


# --------------------------------------------------------------------- #
# the line format                                                        #
# --------------------------------------------------------------------- #


def test_lines_comments_and_blanks_parse_to_an_ordered_mapping():
    text = "\n".join(
        [
            "# a comment line",
            "bc = neumann",
            "",
            "h = 0.5  # trailing comment",
            "expr = a=b",
        ]
    )
    mapping = parse_config_text(text)
    assert mapping == {"bc": "neumann", "h": "0.5", "expr": "a=b"}
    assert list(mapping) == ["bc", "h", "expr"]


def test_parse_errors_carry_the_line_number():
    with pytest.raises(ValidationError, match="2: expected 'key = value'"):
        parse_config_text("bc = neumann\njust words\n")
    with pytest.raises(ValidationError, match="3: duplicate key 'h'"):
        parse_config_text("bc = neumann\nh = 1\nh = 2\n")
    with pytest.raises(ValidationError, match="1: empty key"):
        parse_config_text("= 5\n")


def test_missing_config_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="does not exist"):
        load_config(tmp_path / "nope.cfg")


# --------------------------------------------------------------------- #
# the typed view                                                         #
# --------------------------------------------------------------------- #


def test_typed_getters_convert_default_and_validate():
    cfg = ExperimentConfig({"bc": "neumann", "h": "1/512", "deltas": "0.4, 0.2", "n": "3"})
    assert cfg.get_str("bc", choices=("neumann", "dirichlet", "periodic")) == "neumann"
    assert cfg.get_number("h") == 1.0 / 512
    assert cfg.get_number("dt", default=0.05) == 0.05
    assert cfg.get_number_list("deltas") == [0.4, 0.2]
    assert cfg.get_int("n") == 3
    cfg.reject_unknown_keys()  # everything above was consumed


def test_typed_getters_reject_bad_values():
    cfg = ExperimentConfig({"bc": "absorbing", "n": "2.5", "deltas": " , "})
    with pytest.raises(ValidationError, match="must be one of"):
        cfg.get_str("bc", choices=("neumann", "dirichlet", "periodic"))
    with pytest.raises(ValidationError, match="must be an integer"):
        cfg.get_int("n")
    with pytest.raises(ValidationError, match="empty list"):
        cfg.get_number_list("deltas")
    with pytest.raises(ValidationError, match="missing required config key 'h'"):
        cfg.get_number("h")


def test_stray_keys_are_reported_by_name():
    cfg = ExperimentConfig({"h": "0.5", "detlas": "0.4"})
    cfg.get_number("h")
    with pytest.raises(ValidationError, match="unknown config key\\(s\\): 'detlas'"):
        cfg.reject_unknown_keys()


# --------------------------------------------------------------------- #
# the reproducibility record                                             #
# --------------------------------------------------------------------- #


def test_resolved_record_reparses_to_the_same_values():
    cfg = ExperimentConfig({"h": "2*pi/1024", "bc": "periodic"})
    h = cfg.get_number("h")
    cfg.get_str("bc")
    cfg.get_number("dt", default=0.05)
    record = format_resolved(cfg.resolved, ["all good"])
    assert record.startswith("# dispersal run record\n# all good\n")
    second = ExperimentConfig(parse_config_text(record))
    assert second.get_number("h") == h  # repr round-trips bitwise
    assert second.get_number("dt") == 0.05
    assert second.get_str("bc") == "periodic"

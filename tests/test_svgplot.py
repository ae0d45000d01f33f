import re

import pytest

from violina.svgplot import panel_plot


def test_panel_plot_needs_a_panel():
    with pytest.raises(ValueError, match="^nothing to plot: no panels$"):
        panel_plot([])


@pytest.mark.parametrize("value, ticks", [
    (2.0, ["1.8", "1.9", "2", "2.1", "2.2"]),
    (-5.0, ["-5.5", "-5.25", "-5", "-4.75", "-4.5"]),
    (0.0, ["-1", "-0.5", "0", "0.5", "1"]),
], ids=["positive", "negative", "zero"])
def test_constant_series_is_padded_by_a_tenth_or_one(value, ticks):
    # x runs 0..2 in five ticks; the y ticks follow them
    svg = panel_plot([("", [("s", [0, 1, 2], [value] * 3)])])
    labels = re.findall(r">([^<>]+)</text>", svg)
    assert labels[:10] == ["0", "0.5", "1", "1.5", "2", *ticks]

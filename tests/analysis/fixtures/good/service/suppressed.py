"""REP000 good fixture: a justified single-rule suppression is honoured."""

import numpy as np  # repro: noqa REP001 -- fixture exercising a justified suppression


def total(values):
    return int(np.sum(values))

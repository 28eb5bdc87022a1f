"""noqa fixture: three prints, two legitimately suppressed, one mis-tagged.

Not named ``good_*``/``bad_*`` on purpose -- the suppression tests assert the
exact surviving finding, and the false-positive CI guard only sweeps
``good_*`` files.
"""


def tagged(report):
    # the smoke CLI intentionally prints its one-line verdict to stdout
    print("ok:", report)  # repro: noqa[REP106]


def blanket(report):
    print("ok:", report)  # repro: noqa


def mistagged(report):
    print("ok:", report)  # repro: noqa[REP102]

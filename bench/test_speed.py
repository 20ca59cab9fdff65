"""The speed sampler's scaling, on made-up samples."""
import pytest

import speed
import workloads


def sampler_with(times, period=0.1):
    sampler = speed.SpeedSampler()
    sampler.mids = [period * (i + 0.5) for i in range(len(times))]
    sampler.times = list(times)
    return sampler


def test_long_span_uses_the_samples_inside_it():
    # the machine runs at half speed from t = 2 s on
    sampler = sampler_with([1e-3] * 20 + [2e-3] * 20)
    assert sampler.kernel_s(0.0, 2.0) == 1e-3
    assert sampler.kernel_s(2.0, 4.0) == 2e-3
    # the same op takes twice as long at half speed, and scales to one value
    fast = sampler.scaled(0.5, 0.0, 2.0)
    slow = sampler.scaled(1.0, 2.0, 4.0)
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(0.5 * speed.REFERENCE_S / 1e-3)


def test_short_span_uses_the_nearest_samples():
    sampler = sampler_with([1e-3] * 20 + [2e-3] * 20)
    assert sampler.kernel_s(0.50, 0.51) == 1e-3  # no sample inside
    assert sampler.kernel_s(3.50, 3.51) == 2e-3
    assert sampler.kernel_s(0.0, 0.0) == 1e-3  # at the start of the run


def test_round_leaves_the_sampler_time_out():
    sampler = speed.SpeedSampler()

    def op():
        sampler._sample(None, None)  # as if the timer fired during the op
        return 1

    rnd = workloads.Round(sampler=sampler)
    record, out = rnd.op("op", op)
    assert out == 1 and not record.problems
    assert sampler.spent > 0.0
    assert record.seconds == pytest.approx(record.end - record.start - sampler.spent)

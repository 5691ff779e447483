"""Privacy-preserving aggregate mobility analytics.

Per-user presence vectors are additively masked so an untrusted aggregator
recovers only group sums; the aggregate count series then feed seasonal
forecasting, residual anomaly detection, and correlation-assisted
enhancement. Count-Min sketching compresses large vector domains before
encryption at a bounded, one-sided accuracy cost.

Subpackages: ``privagg`` (masking protocol), ``forecast`` (models and
scans), ``harness`` (simulation, pipeline, CLI). Modules: ``ingest``
(raw records to count series), ``timeseries`` (epochs, profiles, tests),
``sketch`` (Count-Min).

Importing the package imports none of them: the protocol side needs only
NumPy and cryptography, and only ``forecast`` loads SciPy.
"""

__version__ = "0.1.0"

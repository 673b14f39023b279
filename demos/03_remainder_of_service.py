"""How much capacity is left for everyone else?

Prints the per-period remainder of service for each grant mechanism as the
burst spacing varies.  Demand-driven schemes hand back whatever they do
not transmit; a standing grant burns every reserved slot whether used or
not, and soft reservation releases the grant outside bursts.
"""

from hapticsched import HapticTrafficModel, RadioConfig, SchedulingScheme, remainder_of_service

S = SchedulingScheme
cfg = RadioConfig(10, 1e6, 0.5e-3, 0.5e-3, 5e-3, 1e-4)

print("Per-period capacity left to background traffic (total 1,000,000 bits/period):\n")
print(f"{'spacing':>9} | " + " ".join(f"{s.value:>9}" for s in S))
for spacing_ms in (1.0, 1.5, 2.0, 2.5, 3.0):
    h = HapticTrafficModel(t_p=1.0, t_b=0.2, t_ib=spacing_ms * 1e-3, t_nb=50e-3)
    row = [remainder_of_service(s, cfg, h) for s in S]
    print(f"{spacing_ms:7.2f} ms | " + " ".join(f"{r:9.0f}" for r in row))

print("""
SPS consumes 200 slots per period (one every 5 ms) no matter how fast the
source actually runs, so its column is flat.  SRR claims only the 40
in-burst grants, the flush grant at the burst end and the 16 sparse sends,
and keeps the rest.  DS and FA
track the transmitted packet count, so slower sources leave more capacity,
and the two coincide wherever both are lossless.
""")

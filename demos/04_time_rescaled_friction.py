"""Friction in any dimension from an exponential rescaling of time.

Extending the configuration space by the physical time t (with conjugate
energy E) and rescaling the Hamiltonian by exp(lam*t) factors makes the
flow, projected back to real time, obey the damped Newton equation

    d2q/dt2 = -lam dq/dt - dV/dq.

The run below integrates the rescaled system through Poincare's time
transformation K = g*H, whose flow keeps physical time as its clock (the
paper's curvilinear parameter is sigma = 1 - exp(-lam*t)), reconstructs
(q(t), dq/dt), and checks the result against an entirely independent direct
integration of the damped equation.  The same dynamics is then reproduced
in the s = exp(-lam*t) chart, where the pairing becomes the non-twisted
singular form.
"""

import numpy as np

from bhamsys import (PotentialSpec, damped_newton_reference,
                     friction_ode_residual, reconstruct_real_time,
                     run_rescaled, run_s_coordinates)

LAM = 0.2
potential = PotentialSpec("pure_quadratic", lam=2.0)  # V = q^2 / 2
Q0, V0, HORIZON = 1.0, 0.0, 10.0

traj = run_rescaled(potential, LAM, Q0, V0, HORIZON)
rt = reconstruct_real_time(traj)
print(f"rescaled run: {len(traj) - 1} adaptive steps in physical time, "
      f"ending at t = {traj.times[-1]}")

ts = np.linspace(0.0, HORIZON, 501)
reference = damped_newton_reference(potential, LAM, Q0, V0, ts, step=1e-3)
q, v = rt.sample(ts)
print(f"max |q - reference|     : {np.max(np.abs(q[:, 0] - reference.qs[:, 0])):.2e}")
print(f"max |dq/dt - reference| : {np.max(np.abs(v[:, 0] - reference.ps[:, 0])):.2e}")
print(f"friction ODE residual   : {friction_ode_residual(rt, dt=0.01):.2e}")

traj_s = run_s_coordinates(potential, LAM, Q0, V0, HORIZON)
q_s, v_s = reconstruct_real_time(traj_s).sample(ts)
print(f"s-chart route deviation : {np.max(np.abs(q_s - q)):.2e}")

print(f"\n{'t':>5} {'q(t)':>12} {'dq/dt':>12}")
for t in (0.0, 2.0, 5.0, 10.0):
    i = np.searchsorted(ts, t)
    print(f"{t:5.1f} {q[i, 0]:12.6f} {v[i, 0]:12.6f}")
print("\nthe oscillation decays at rate lam/2 without any force term in the "
      "Hamiltonian: dissipation lives in the clock")

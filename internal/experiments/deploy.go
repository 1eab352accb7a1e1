package experiments

import (
	"net/netip"

	"vns/internal/core"
	"vns/internal/health"
	"vns/internal/netsim"
	"vns/internal/telemetry"
	"vns/internal/vns"
)

// ReflectorID is the wire reflector's BGP identifier. It is also its
// RFC 4456 cluster ID: reflected routes carry it in their CLUSTER_LIST,
// and a route that already does is dropped as a loop.
var ReflectorID = netip.MustParseAddr("10.0.0.100")

// Deployment is the one assembly of a VNS deployment: cmd/vnsd, the
// scenario harness, the failover study and the tests that stand in for
// them all build it with Env.Deploy, so what they exercise is what the
// daemon runs.
type Deployment struct {
	*Env
	// Sim is the simulated clock liveness, fault injection and the
	// tracer share; the caller advances it (and starts Monitor).
	Sim        *netsim.Sim
	Tracer     *telemetry.Tracer
	Fwd        *vns.Forwarding
	Monitor    *health.Monitor
	Controller *health.Controller
	Injector   *health.Injector
	// Wire is the wire reflector and Mgmt the management interface over
	// it, nil until Listen starts the reflector.
	Wire *vns.WireDeployment
	Mgmt *core.Mgmt
}

// Deploy builds a deployment over the world: a simulated clock with a
// tracer on it, the per-PoP forwarding plane built with fc (its Tracer
// is the deployment's), and the liveness monitor bound to the failover
// controller, plus a fault injector on the same fabric. A wall
// fc.ConvergenceClock makes the convergence families volatile, as
// wall-clock latencies are not deterministic. A caller that fills a
// Loc-RIB before any session does (the scenario harness) does it on the
// Env first, so the forwarding plane's initial compile follows it.
func (e *Env) Deploy(fc vns.ForwardingConfig) *Deployment {
	d := &Deployment{Env: e, Sim: &netsim.Sim{}}
	d.Tracer = telemetry.NewTracer(d.Sim.Now, telemetry.DefaultTraceCap)
	fc.Tracer = d.Tracer
	d.Fwd = d.Forwarding(fc)
	if fc.ConvergenceClock != nil {
		d.Telemetry.MarkVolatile(telemetry.ConvVolatileFamilies...)
	}
	d.Monitor = health.NewMonitor(d.Sim, d.Fwd.Fabric(), d.Telemetry)
	d.Controller = health.NewController(d.Fwd, d.RR, d.Telemetry)
	d.Controller.Bind(d.Monitor)
	d.Injector = health.NewInjector(d.Sim, d.Fwd.Fabric(), d.Telemetry)
	return d
}

// Listen starts the wire reflector on bgpAddr, with the deployment's
// telemetry and convergence span layer, and builds the management
// interface over it, whose drains go through the failover controller.
func (d *Deployment) Listen(bgpAddr string) error {
	w, err := vns.StartWireDeployment(bgpAddr, d.DP, d.RR, ReflectorID)
	if err != nil {
		return err
	}
	w.RR.SetTelemetry(d.Telemetry)
	w.RR.SetConvergence(d.Fwd.Convergence())
	d.Wire, d.Mgmt = w, core.NewMgmt(w.RR, d.Controller.Drain)
	return nil
}

// Close stops the wire reflector Listen started.
func (d *Deployment) Close() {
	if d.Wire != nil {
		d.Wire.Close()
	}
}

package topology

import "fmt"

// Bandwidth assumptions from §5 of the paper ("Assumptions"), converted to
// bytes/second.
const (
	GB = 1e9

	// NICBandwidth is the effective data-center NIC bandwidth: 100 Gbps
	// assumed utilized at 60%, yielding 8 GB/s.
	NICBandwidth = 8 * GB
	// PCIeBandwidth is the assumed PCIe switch bandwidth.
	PCIeBandwidth = 32 * GB
	// V100RingBandwidth is the per-direction V100 NVLink ring bandwidth:
	// 90% of the nominal 150 GB/s.
	V100RingBandwidth = 135 * GB
	// A100SwitchBandwidth is the A100 NVSwitch uni-directional bandwidth:
	// 90% of the nominal 300 GB/s.
	A100SwitchBandwidth = 270 * GB

	// Latency assumptions (not stated in the paper; chosen at realistic
	// NCCL magnitudes so that bandwidth dominates for the paper's large
	// 2 GiB-per-GPU payloads).
	NVLinkLatency = 2e-6
	PCIeLatency   = 5e-6
	NICLatency    = 20e-6
)

// A100System models the GCP A100 configuration of Fig. 9a: `nodes` nodes,
// each with 16 GPUs sharing one NVSwitch and one NIC to the data-center
// network. The paper uses the hierarchy [nodes 16]. It panics where
// NewA100System errs.
func A100System(nodes int) *System { return must(NewA100System(nodes)) }

// NewA100System is A100System returning New's error.
func NewA100System(nodes int) (*System, error) {
	return New(
		fmt.Sprintf("a100-%dnode", nodes),
		[]Level{{Name: "node", Count: nodes}, {Name: "gpu", Count: 16}},
		[]Link{
			{Name: "NIC", Bandwidth: NICBandwidth, Latency: NICLatency},
			{Name: "NVSwitch", Bandwidth: A100SwitchBandwidth, Latency: NVLinkLatency},
		},
	)
}

// V100System models the GCP V100 configuration of Fig. 9b: `nodes` nodes,
// each with 8 V100 GPUs forming an NVLink ring, two PCIe domains of 4 GPUs
// each, and (as the paper's modelling simplification) one shared NIC per
// node. The paper uses the hierarchy [nodes 8], treating the 8-GPU ring as
// one layer because the ring bandwidth dwarfs the PCIe bridges.
//
// The returned system carries a CrossDomainModel so that the event-level
// emulator can reproduce the cross-domain traffic the analytic model
// ignores — the paper's stated source of reduced V100 accuracy (§5). It
// panics where NewV100System errs.
func V100System(nodes int) *System { return must(NewV100System(nodes)) }

// NewV100System is V100System returning New's error.
func NewV100System(nodes int) (*System, error) {
	s, err := New(
		fmt.Sprintf("v100-%dnode", nodes),
		[]Level{{Name: "node", Count: nodes}, {Name: "gpu", Count: 8}},
		[]Link{
			{Name: "NIC", Bandwidth: NICBandwidth, Latency: NICLatency},
			{Name: "NVLinkRing", Bandwidth: V100RingBandwidth, Latency: NVLinkLatency},
		},
	)
	if err != nil {
		return nil, err
	}
	return s.WithCrossDomain(CrossDomainModel{
		DomainsPerNode: 2,
		Bandwidth:      PCIeBandwidth,
		Latency:        PCIeLatency,
	}), nil
}

// SuperPodSystem models a three-level DGX-style cluster beyond the paper's
// two-level testbeds: `pods` scalable units, each with `nodesPerPod` nodes
// of 8 GPUs behind an NVSwitch. Nodes reach their pod's leaf switches at
// InfiniBand-rail bandwidth; pods reach the cluster spine through an
// oversubscribed uplink. Useful for projecting the paper's techniques onto
// deeper hierarchies (§7's "projections about communication costs when
// investigating new system hierarchies"). It panics where NewSuperPodSystem
// errs.
func SuperPodSystem(pods, nodesPerPod int) *System { return must(NewSuperPodSystem(pods, nodesPerPod)) }

// NewSuperPodSystem is SuperPodSystem returning New's error.
func NewSuperPodSystem(pods, nodesPerPod int) (*System, error) {
	return New(
		fmt.Sprintf("superpod-%dx%d", pods, nodesPerPod),
		[]Level{
			{Name: "pod", Count: pods},
			{Name: "node", Count: nodesPerPod},
			{Name: "gpu", Count: 8},
		},
		[]Link{
			{Name: "Spine", Bandwidth: 50 * GB, Latency: 2 * NICLatency},
			{Name: "IBRail", Bandwidth: 100 * GB, Latency: NICLatency / 2},
			{Name: "NVSwitch", Bandwidth: A100SwitchBandwidth, Latency: NVLinkLatency},
		},
	)
}

// Fig2aSystem is the running example of Fig. 2a: one rack with 2 servers,
// each with 2 CPUs connecting 4 GPUs — 16 GPUs named A0..D3. Interconnect
// S0 joins GPUs under a CPU, S1 joins CPUs in a server, S2 joins servers in
// the rack.
func Fig2aSystem() *System {
	return MustNew(
		"fig2a",
		[]Level{
			{Name: "rack", Count: 1},
			{Name: "server", Count: 2},
			{Name: "CPU", Count: 2},
			{Name: "GPU", Count: 4},
		},
		[]Link{
			{Name: "DCN", Bandwidth: NICBandwidth, Latency: NICLatency},
			{Name: "S2", Bandwidth: NICBandwidth, Latency: NICLatency},
			{Name: "S1", Bandwidth: PCIeBandwidth, Latency: PCIeLatency},
			{Name: "S0", Bandwidth: A100SwitchBandwidth, Latency: NVLinkLatency},
		},
	)
}

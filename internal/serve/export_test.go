package serve

import (
	"context"

	"p2"
)

// The external test package reads the load harness's catalog (load
// imports serve), so it reaches these through this file.
var (
	Resolve       = resolve
	BuildResponse = buildResponse
	EncodeTail    = encodeTail
	WritePlan     = writePlan
	WireBody      = wireBody
)

// SetPlanFn replaces s's planner.
func SetPlanFn(s *Server, fn func(context.Context, *p2.System, p2.Request) (*p2.PlanResult, error)) {
	s.planFn = fn
}

// Coalesced reads s's count of coalesced requests.
func Coalesced(s *Server) int64 { return s.coalesced.Load() }

package serve

// Resolve and BuildResponse are resolve and buildResponse for the external
// test package, which reads the load harness's catalog (load imports serve).
var (
	Resolve       = resolve
	BuildResponse = buildResponse
)

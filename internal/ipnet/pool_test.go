package ipnet

import "rmcast/internal/pool"

// referenced reports whether pb still counts a reference.
func referenced(pb *payloadBuf) bool { return pb.refs != pool.Refs[payloadBuf]{} }

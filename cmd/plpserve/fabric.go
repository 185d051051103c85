package main

import "net"

// dialableAddr renders a bound listener address as something another
// process on this machine can dial: a wildcard host (":0",
// "0.0.0.0", "[::]") becomes 127.0.0.1, everything else passes
// through. Fabric workers advertise this form, and the startup
// `addr=` line prints it so scripts can use it verbatim.
func dialableAddr(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

//go:build !race

package httpd

import "net"

func raceRelease(net.Conn) {}

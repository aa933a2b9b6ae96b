//go:build !race

package httpd

import "net"

//mediavet:hotpath
func raceRelease(net.Conn) {}

// Command cntr mirrors the paper's CLI against a demo host: it boots a
// simulated machine with a slim application container and a fat tools
// container, attaches (fat-container or host mode), and runs either one
// command or an interactive shell on stdin/stdout.
//
// Usage:
//
//	cntr attach <container> [--fat <tools-container>] [--exec "<cmd>"]
package main

import (
	"flag"
	"fmt"
	"os"

	"cntr/internal/cntr"
	"cntr/internal/container"
	"cntr/internal/pty"
)

func main() {
	if len(os.Args) < 3 || os.Args[1] != "attach" {
		fmt.Fprintln(os.Stderr, `usage: cntr attach <container> [--fat <name>] [--exec "<cmd>"]`)
		os.Exit(2)
	}
	target := os.Args[2]
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	fat := fs.String("fat", "", "fat container providing the tools (default: host)")
	execCmd := fs.String("exec", "", "run one command instead of an interactive shell")
	fs.Parse(os.Args[3:])

	h := demoHost()
	sess, err := cntr.Attach(h, cntr.Options{Container: target, Fat: *fat})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cntr: %v\n", err)
		os.Exit(1)
	}
	defer sess.Close()
	if *execCmd != "" {
		out, err := sess.Run(*execCmd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cntr: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}
	sess.Interactive()
	pty.Proxy(sess.Master, os.Stdin, os.Stdout)
}

// demoHost boots a host with "demo" (slim nginx-style app) and "tools"
// (fat debug image) so the command is usable out of the box.
func demoHost() *cntr.Host {
	h := cntr.NewHost()
	app, err := container.BuildImage("demo-app", "v1", container.ImageConfig{
		Cmd: []string{"/usr/sbin/nginx"},
		Env: []string{"NGINX_PORT=8080", "PATH=/usr/sbin"},
	}, container.LayerSpec{ID: "app", Files: []container.FileSpec{
		{Path: "/usr/sbin/nginx", Size: 4096, Executable: true},
		{Path: "/etc/nginx/nginx.conf", Content: []byte("worker_processes 1;\n")},
		{Path: "/etc/passwd", Content: []byte("nginx:x:101:101::/:/sbin/nologin\n")},
		{Path: "/etc/hostname", Content: []byte("demo\n")},
	}})
	must(err)
	tools, err := container.BuildImage("tools", "v1", container.ImageConfig{
		Env: []string{"PATH=/usr/bin:/bin"},
	}, container.LayerSpec{ID: "tools", Files: []container.FileSpec{
		{Path: "/usr/bin/gdb", Size: 9000, Executable: true},
		{Path: "/usr/bin/strace", Size: 7000, Executable: true},
		{Path: "/usr/bin/htop", Size: 5000, Executable: true},
		{Path: "/bin/sh", Size: 1000, Executable: true},
	}})
	must(err)
	// In a fixed order, so demo's process is always pid 2 and the tools
	// shell pid 3.
	for _, ct := range []struct {
		name string
		img  *container.Image
	}{{"demo", app}, {"tools", tools}} {
		c, err := h.Runtime.Create(ct.name, ct.img, container.CreateOpts{Engine: "docker"})
		must(err)
		must(h.Runtime.Start(c))
	}
	return h
}

func must(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "cntr: %v\n", err)
		os.Exit(1)
	}
}

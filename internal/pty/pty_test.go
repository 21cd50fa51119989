package pty

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestMasterToSlave(t *testing.T) {
	m, s := New()
	go m.Write([]byte("input"))
	buf := make([]byte, 16)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "input" {
		t.Fatalf("slave read: %q %v", buf[:n], err)
	}
}

func TestSlaveToMaster(t *testing.T) {
	m, s := New()
	go s.Write([]byte("output"))
	buf := make([]byte, 16)
	n, err := m.Read(buf)
	if err != nil || string(buf[:n]) != "output" {
		t.Fatalf("master read: %q %v", buf[:n], err)
	}
}

func TestCloseUnblocksReaders(t *testing.T) {
	m, s := New()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 4)
		_, err := s.Read(buf)
		done <- err
	}()
	m.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("read after close: %v, want EOF", err)
	}
	if _, err := m.Write([]byte("x")); err == nil {
		t.Fatal("write after close should fail")
	}
}

func TestProxyRoundTrip(t *testing.T) {
	m, s := New()
	// The "shell": uppercases each line.
	go func() {
		buf := make([]byte, 64)
		for {
			n, err := s.Read(buf)
			if err != nil {
				s.Close()
				return
			}
			s.Write(bytes.ToUpper(buf[:n]))
		}
	}()
	userIn := strings.NewReader("hello\n")
	var userOut bytes.Buffer
	Proxy(m, userIn, &userOut)
	if got := userOut.String(); got != "HELLO\n" {
		t.Fatalf("proxied output = %q", got)
	}
}

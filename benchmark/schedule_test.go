package main

import (
	"fmt"
	"testing"
	"time"
)

func TestSameSeedSameSchedule(t *testing.T) {
	a := poissonSchedule(7, openLoopRate, 2*time.Second, liveTasks)
	b := poissonSchedule(7, openLoopRate, 2*time.Second, liveTasks)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonSchedule(8, openLoopRate, 2*time.Second, liveTasks); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n != 2*openLoopRate {
		t.Errorf("%d arrivals in 2 s at %d/s: every seed must offer the same load", n, openLoopRate)
	}
	var last time.Duration
	for _, x := range a {
		if x.Due < last || x.Due >= 2*time.Second || x.Task < 0 || x.Task >= liveTasks {
			t.Fatalf("bad arrival %+v after %v", x, last)
		}
		last = x.Due
	}
}

func TestSameSeedSamePicks(t *testing.T) {
	a, b := newTaskPicker(3, liveTasks), newTaskPicker(3, liveTasks)
	for i := 0; i < 1000; i++ {
		if x, y := a.next(), b.next(); x != y || x < 0 || x >= liveTasks {
			t.Fatalf("pick %d: %d against %d", i, x, y)
		}
	}
}
